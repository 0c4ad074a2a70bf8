package experiment

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAllSpecsProduceReports runs every paper experiment end to end and
// sanity-checks its report. This is the same work `cmd/mnpexp all` and
// the benchmark suite do, so it takes a couple of CPU minutes; skip it
// in -short runs.
func TestAllSpecsProduceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	keyContent := map[string][]string{
		"T1":   {"Transmitting a packet", "83.333"},
		"F5":   {"sender order", "parent map"},
		"F6":   {"sender order", "power 50"},
		"F7":   {"grid-2x10", "sender order"},
		"F8":   {"average active radio time", "ring 19"},
		"F9":   {"without initial idle", "spread"},
		"F10":  {"segments", "linear fit", "R^2"},
		"F11":  {"messages sent", "receptions"},
		"F12":  {"data msgs/minute"},
		"F13":  {"fraction of nodes", "diagonal/edge"},
		"EDEL": {"MNP", "Deluge", "msgs sent"},
		"A1":   {"with selection", "without selection"},
		"A2":   {"with sleep", "without sleep"},
		"A3":   {"with repair", "without repair"},
		"A4":   {"power uniform", "battery-aware"},
		"A5":   {"always listening", "idle duty"},
		"A6":   {"corner base", "center base", "completion ratio"},
	}
	for _, spec := range AllSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			out, err := spec.Run(42)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			for _, want := range keyContent[spec.ID] {
				if !strings.Contains(out, want) {
					t.Errorf("%s report missing %q", spec.ID, want)
				}
			}
		})
	}
}

// TestSpecEngine checks that a Spec's Engine reaches every Setup the
// spec builds, and that it is per-spec state: a tiled and a sequential
// copy of one spec run side by side each produce the report they
// produce alone.
func TestSpecEngine(t *testing.T) {
	tiled := EngineConfig{TileRows: 2, TileCols: 2, Shards: 2}

	// Structure: which path did the built runs take?
	probe := Spec{ID: "probe", run: func(ec EngineConfig, seed int64) (string, error) {
		res, err := ec.run(Setup{Name: "probe", Rows: 3, Cols: 3, ImagePackets: 8, Seed: seed, Limit: time.Hour})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("engine=%v grid=%s", res.Engine != nil, res.TileGrid), nil
	}}
	for _, tc := range []struct {
		ec   EngineConfig
		want string
	}{
		{EngineConfig{}, "engine=false grid=0x0"},
		{tiled, "engine=true grid=2x2"},
	} {
		probe.Engine = tc.ec
		if got, err := probe.Run(1); err != nil || got != tc.want {
			t.Errorf("Engine %+v: got %q (err %v), want %q", tc.ec, got, err, tc.want)
		}
	}

	// Isolation: a real spec, alone and then concurrently.
	seq, _ := ByID("F5")
	til := seq
	til.Engine = tiled
	wantSeq, err := seq.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	wantTil, err := til.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if wantSeq == wantTil {
		t.Fatal("tiled and sequential F5 reports are identical; the Engine never reached the runs")
	}
	specs := []Spec{til, seq, til, seq}
	got := make([]string, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Run(3)
		}()
	}
	wg.Wait()
	for i, s := range specs {
		want := wantSeq
		if s.Engine != (EngineConfig{}) {
			want = wantTil
		}
		if errs[i] != nil || got[i] != want {
			t.Errorf("concurrent run %d (Engine %+v): report differs from its solo run (err %v)", i, s.Engine, errs[i])
		}
	}
}
