package main

import (
	"fmt"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/image"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

// workload is one named dissemination. setup turns the run seed into
// the only input the program receives: a fully spelled-out Setup.
type workload struct {
	name  string
	setup func(seed int64) experiment.Setup
}

// workloads lists the benchmark's workloads; README.md gives the
// reason for each.
var workloads = []workload{
	{"f8-mnp", func(seed int64) experiment.Setup {
		return grid20("f8-mnp", experiment.ProtocolMNP, seed)
	}},
	{"edel-deluge", func(seed int64) experiment.Setup {
		return grid20("edel-deluge", experiment.ProtocolDeluge, seed)
	}},
	{"grid60-tiled", grid60Tiled},
	{"f8-mobile", func(seed int64) experiment.Setup {
		s := grid20("f8-mobile", experiment.ProtocolMNP, seed)
		s.Mobility = waypoint
		s.MobilityEvery = 5 * time.Second
		return s
	}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// grid20 is the paper's Figure 8 deployment: a 20×20 grid at 10 ft
// spacing disseminating a 5-segment (640-packet) image on the
// sequential path. Every field is set, so a change of package defaults
// cannot silently change the workload.
func grid20(name string, proto experiment.ProtocolKind, seed int64) experiment.Setup {
	return experiment.Setup{
		Name:                 name,
		Rows:                 20,
		Cols:                 20,
		Spacing:              10,
		Layout:               nil,
		ImagePackets:         5 * image.DefaultSegmentPackets,
		ImageData:            nil,
		Protocol:             proto,
		ProtocolOptions:      nil,
		BaseID:               0,
		Power:                radio.PowerSim,
		Seed:                 seed,
		Radio:                nil,
		MNP:                  nil,
		Battery:              nil,
		Limit:                12 * time.Hour,
		Observer:             nil,
		Faults:               nil,
		Mobility:             nil,
		MobilityEvery:        0,
		Invariants:           nil,
		Telemetry:            nil,
		Shards:               1,
		Workers:              1,
		TileRows:             0,
		TileCols:             0,
		TileAuto:             false,
		Repartition:          false,
		RepartitionEvery:     0,
		RepartitionThreshold: 0,
	}
}

// grid60Tiled is a 3,600-node, 64-packet MNP dissemination on a 2×2
// tile grid advanced by two executors on two worker goroutines.
func grid60Tiled(seed int64) experiment.Setup {
	s := grid20("grid60-tiled", experiment.ProtocolMNP, seed)
	s.Rows, s.Cols = 60, 60
	s.ImagePackets = 64
	s.Shards, s.Workers = 2, 2
	s.TileRows, s.TileCols = 2, 2
	return s
}

// waypoint moves every node by random waypoint at 1–3 ft/s with 10 s
// pauses, seeded from the run seed.
func waypoint(l *topology.Layout, seed int64) (topology.Mobility, error) {
	return topology.NewWaypoint(l, topology.WaypointConfig{
		SpeedMin: 1, SpeedMax: 3, Pause: 10 * time.Second, Seed: seed,
	})
}
