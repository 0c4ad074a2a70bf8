package mnp

// The regeneration harness: one benchmark per table and figure of the
// paper's evaluation, plus the section-5 Deluge comparison and the
// ablations from DESIGN.md. Each benchmark runs the corresponding
// experiment spec end to end and reports paper-shaped metrics as
// custom benchmark outputs. Regenerate everything with
//
//	go test -bench=. -benchmem
//
// and the per-figure reports with cmd/mnpexp.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/metrics"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// benchSpec runs one experiment spec per benchmark iteration.
func benchSpec(b *testing.B, id string) {
	b.Helper()
	spec, ok := findSpec(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := spec.Run(42 + int64(i))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && !strings.Contains(out, "\n") {
			b.Fatalf("%s produced an empty report", id)
		}
		b.SetBytes(int64(len(out)))
	}
}

func findSpec(id string) (Spec, bool) {
	for _, s := range Experiments() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// BenchmarkTable1EnergyCosts regenerates Table 1 (per-operation energy
// costs of Mica motes).
func BenchmarkTable1EnergyCosts(b *testing.B) { benchSpec(b, "T1") }

// BenchmarkFig5Indoor regenerates Figure 5: the indoor 3x5 testbed at
// power levels 4 and 3 — parent maps, sender order, completion time.
func BenchmarkFig5Indoor(b *testing.B) { benchSpec(b, "F5") }

// BenchmarkFig6Outdoor5x5 regenerates Figure 6: the outdoor 5x5 grid
// at full and reduced power.
func BenchmarkFig6Outdoor5x5(b *testing.B) { benchSpec(b, "F6") }

// BenchmarkFig7Outdoor2x10 regenerates Figure 7: the outdoor 2x10
// grid, the paper's long-multihop deployment.
func BenchmarkFig7Outdoor2x10(b *testing.B) { benchSpec(b, "F7") }

// BenchmarkFig8ActiveRadioTime regenerates Figure 8: per-node active
// radio time in a 20x20 network disseminating 5 segments.
func BenchmarkFig8ActiveRadioTime(b *testing.B) { benchSpec(b, "F8") }

// BenchmarkFig9ARTNoInitialIdle regenerates Figure 9: the same
// distribution with the initial idle-listening period removed.
func BenchmarkFig9ARTNoInitialIdle(b *testing.B) { benchSpec(b, "F9") }

// BenchmarkFig10ProgramSizeSweep regenerates Figure 10: completion
// time and active radio time across program sizes of 1..10 segments.
func BenchmarkFig10ProgramSizeSweep(b *testing.B) { benchSpec(b, "F10") }

// BenchmarkFig11TxRxDistribution regenerates Figure 11: transmission
// and reception distributions across the 20x20 grid.
func BenchmarkFig11TxRxDistribution(b *testing.B) { benchSpec(b, "F11") }

// BenchmarkFig12MessageTimeline regenerates Figure 12: advertisements,
// requests and data messages per one-minute window.
func BenchmarkFig12MessageTimeline(b *testing.B) { benchSpec(b, "F12") }

// BenchmarkFig13PropagationProgress regenerates Figure 13: the
// propagation wavefront of a single segment, including the
// diagonal-vs-edge uniformity check.
func BenchmarkFig13PropagationProgress(b *testing.B) { benchSpec(b, "F13") }

// BenchmarkDelugeComparison regenerates the section-5 comparison:
// MNP vs Deluge on the same 20x20 workload.
func BenchmarkDelugeComparison(b *testing.B) { benchSpec(b, "EDEL") }

// BenchmarkAblationNoSenderSelection measures dissemination with the
// ReqCtr competition disabled (design ablation A1).
func BenchmarkAblationNoSenderSelection(b *testing.B) { benchSpec(b, "A1") }

// BenchmarkAblationNoSleep measures dissemination with radio sleeping
// disabled (design ablation A2).
func BenchmarkAblationNoSleep(b *testing.B) { benchSpec(b, "A2") }

// BenchmarkAblationQueryUpdate measures the effect of the optional
// query/update repair phase on a lossy network (design ablation A3).
func BenchmarkAblationQueryUpdate(b *testing.B) { benchSpec(b, "A3") }

// BenchmarkBatteryAware measures the section-6 battery-aware
// advertisement-power extension (design ablation A4).
func BenchmarkBatteryAware(b *testing.B) { benchSpec(b, "A4") }

// BenchmarkIdleDutyCycle measures the paper's S-MAC-style suggestion
// for eliminating initial idle listening (design extension A5).
func BenchmarkIdleDutyCycle(b *testing.B) { benchSpec(b, "A5") }

// BenchmarkScaleCentralBase validates the section-6 scaling claim: a
// 4x larger network with the base station at its center completes in
// about the same time (design extension A6).
func BenchmarkScaleCentralBase(b *testing.B) { benchSpec(b, "A6") }

// --- Substrate micro-benchmarks ---
//
// The figure benchmarks above measure whole experiments; the two below
// isolate the simulation substrate's hot paths: Medium.Transmit (the
// per-frame channel work) and Kernel scheduling (the per-event queue
// work). They feed BENCH_sim.json via `make bench`.

// BenchmarkMediumTransmit measures one batch of concurrent frame
// transmissions plus their deliveries on a 400-node (20x20) grid, for
// varying numbers of simultaneously active transmitters.
func BenchmarkMediumTransmit(b *testing.B) {
	for _, active := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("active=%d", active), func(b *testing.B) {
			k := sim.New(1)
			layout, err := topology.Grid(20, 20, 10)
			if err != nil {
				b.Fatal(err)
			}
			m, err := radio.NewMedium(k, layout, radio.DefaultParams(), 2)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < layout.N(); i++ {
				id := packet.NodeID(i)
				if err := m.Register(id, func(packet.Packet, radio.RxMeta) {}); err != nil {
					b.Fatal(err)
				}
				m.SetRadio(id, true)
			}
			// Sources spread across the grid (37 is coprime to 400).
			pkts := make([]*packet.Advertise, active)
			srcs := make([]packet.NodeID, active)
			for j := range srcs {
				srcs[j] = packet.NodeID(j * 37 % layout.N())
				pkts[j] = &packet.Advertise{Src: srcs[j], ProgramID: 1, ProgramSegments: 5, SegID: 1, SegNominal: 128, TotalPackets: 640}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, src := range srcs {
					if _, err := m.Transmit(src, pkts[j], radio.PowerSim); err != nil {
						b.Fatal(err)
					}
				}
				k.Run(time.Hour) // drain the finish events
			}
		})
	}
}

// BenchmarkGeometryBuild measures sparse radio-geometry construction —
// the simulator's startup cost — across three decades of deployment
// size up to the 250k-node scaling target. The curve should be
// near-linear in n (the spatial index is two O(n) passes), and the
// geo-B metric reports the geometry's resident bytes so benchjson can
// record the memory series alongside the timings: roughly 24 B/node
// versus the 8n² B the dense distance matrix would need (500 GB at
// 250k nodes).
func BenchmarkGeometryBuild(b *testing.B) {
	for _, dims := range []struct{ rows, cols int }{
		{25, 40},   // 1000
		{100, 100}, // 10k
		{250, 400}, // 100k
		{500, 500}, // 250k
	} {
		n := dims.rows * dims.cols
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			layout, err := topology.Grid(dims.rows, dims.cols, 10)
			if err != nil {
				b.Fatal(err)
			}
			params := radio.DefaultParams()
			b.ReportAllocs()
			b.ResetTimer()
			var fp uint64
			for i := 0; i < b.N; i++ {
				geo, err := radio.NewGeometry(layout, params, 2)
				if err != nil {
					b.Fatal(err)
				}
				fp = geo.Footprint()
			}
			b.ReportMetric(float64(fp), "geo-B")
		})
	}
}

// BenchmarkEngineGrid measures the sharded lockstep engine against the
// sequential kernel: one full 60x60-grid (3600-node) dissemination per
// iteration at 1, 2, 4, and 8 spatial shards. The shards=1 case is the
// classic single-kernel path; higher counts exercise partitioning,
// per-window advancement, and barrier ghost exchange. The window phase
// parallelizes across cores (Workers=0 auto-selects); on a single-core
// host the series instead bounds the lockstep overhead — sharded runs
// should stay within a few percent of sequential despite the ~300k
// barrier exchanges a run this size performs. Feeds BENCH_sim.json via
// `make bench`.
func BenchmarkEngineGrid(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(experiment.Setup{
					Name: "engine-grid", Rows: 60, Cols: 60, ImagePackets: 64,
					Seed: 42 + int64(i), Shards: shards,
					Limit: 12 * time.Hour,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatalf("shards=%d seed=%d: dissemination incomplete", shards, 42+int64(i))
				}
			}
		})
	}
	// Tiled series: the same 3600-node dissemination on explicit 2D
	// tile grids, at four executors unless a cell says otherwise, with
	// and without the adaptive repartitioner. Each run reports the mean
	// per-window load imbalance (max/mean across executors, 1.0 is
	// perfect) alongside the timing, so BENCH_sim.json records the
	// balance curve the repartitioner is supposed to flatten. `make
	// bench-smoke` runs just this series, one iteration per config.
	for _, tc := range []struct {
		name       string
		rows, cols int
		repart     bool
		mobile     bool
		shards     int // executors; 0 means four
		workers    int // 0 picks from the host CPU count
	}{
		{"tiles=2x2", 2, 2, false, false, 0, 0},
		// The worker curve: the perfbench grid60-tiled shape (2x2 tiles
		// on two executors) with executor 1 inline and on its own
		// worker goroutine. Results are identical; only the barrier
		// and the per-window executor imbalance separate the timings.
		{"tiles=2x2-workers=1", 2, 2, false, false, 2, 1},
		{"tiles=2x2-workers=2", 2, 2, false, false, 2, 2},
		{"tiles=4x4", 4, 4, false, false, 0, 0},
		{"tiles=4x4-repart", 4, 4, true, false, 0, 0},
		// The mobile cell prices barrier-quantized position updates: a
		// random-waypoint walk moves every node through the run, so each
		// window pays index maintenance plus link-row invalidation on top
		// of the static baseline above it.
		{"tiles=4x4-mobile", 4, 4, false, true, 0, 0},
	} {
		shards := tc.shards
		if shards == 0 {
			shards = 4
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var imbalance float64
			for i := 0; i < b.N; i++ {
				setup := experiment.Setup{
					Name: "engine-grid-tiled", Rows: 60, Cols: 60, ImagePackets: 64,
					Seed: 42 + int64(i), Shards: shards, Workers: tc.workers,
					TileRows: tc.rows, TileCols: tc.cols,
					Repartition: tc.repart,
					Limit:       12 * time.Hour,
				}
				if tc.mobile {
					setup.Mobility = func(l *topology.Layout, seed int64) (topology.Mobility, error) {
						return topology.NewWaypoint(l, topology.WaypointConfig{
							SpeedMin: 1, SpeedMax: 3, Pause: 10 * time.Second, Seed: seed,
						})
					}
					setup.MobilityEvery = 5 * time.Second
				}
				res, err := experiment.Run(setup)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatalf("%s seed=%d: dissemination incomplete", tc.name, 42+int64(i))
				}
				imbalance = metrics.SummarizeLoads(res.LoadMatrix()).Mean
			}
			b.ReportMetric(imbalance, "imbalance")
		})
	}
	// The worker-curve shape again, GOMAXPROCS engines at once, the way
	// RunSeeds, campaigns and mnpexp -parallel fan out: the engines'
	// executors outnumber the processors, so every barrier wait must
	// park rather than spin on a processor another engine needs. Each
	// iteration runs one engine per processor, on consecutive seeds.
	b.Run("tiles=2x2-workers=2-engines=procs", func(b *testing.B) {
		b.ReportAllocs()
		n := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			errs := make([]error, n)
			var wg sync.WaitGroup
			for j := range errs {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					seed := 42 + int64(i*n+j)
					res, err := experiment.Run(experiment.Setup{
						Name: "engine-grid-tiled", Rows: 60, Cols: 60, ImagePackets: 64,
						Seed: seed, Shards: 2, Workers: 2, TileRows: 2, TileCols: 2,
						Limit: 12 * time.Hour,
					})
					if err == nil && !res.Completed {
						err = fmt.Errorf("seed=%d: dissemination incomplete", seed)
					}
					errs[j] = err
				}(j)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkKernelSchedule measures the kernel's schedule/fire and
// schedule/cancel cycles — the per-event cost every simulated timer and
// frame pays.
func BenchmarkKernelSchedule(b *testing.B) {
	b.Run("fire", func(b *testing.B) {
		k := sim.New(1)
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.MustSchedule(time.Microsecond, fn)
			k.Step()
		}
	})
	b.Run("cancel", func(b *testing.B) {
		k := sim.New(1)
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := k.MustSchedule(time.Microsecond, fn)
			t.Cancel()
			k.Step() // no-op: Cancel already removed the event
		}
	})
}

// BenchmarkKernelTimerChurn measures the kernel at the load a Figure 8
// run puts on it, which a depth-1 queue cannot show: about 340 live
// events, each firing re-arms its own node's timer after a short delay
// (backoffs, frame ends), and 3 in 7 firings also reset another node's
// timer to a long delay (like MNP's download watchdog, re-armed on every
// data packet), so 30% of all schedules end in a cancel. One op
// is one fired event; the "queued" metric is the heap depth at the
// end, which is the live count when cancels leave the heap at once.
func BenchmarkKernelTimerChurn(b *testing.B) {
	const nodes = 340
	k := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	// Pre-drawn delays and reset choices keep the RNG off the timed
	// path.
	const draws = 4096
	short := make([]time.Duration, draws)
	long := make([]time.Duration, draws)
	resets := make([]int, draws)
	for i := range resets {
		short[i] = time.Millisecond + time.Duration(rng.Int63n(int64(100*time.Millisecond)))
		long[i] = time.Second + time.Duration(rng.Int63n(int64(30*time.Second)))
		resets[i] = -1
		if rng.Intn(7) < 3 {
			resets[i] = rng.Intn(nodes)
		}
	}
	timers := make([]sim.Timer, nodes)
	fns := make([]func(), nodes)
	draw := 0
	for n := range fns {
		n := n
		fns[n] = func() {
			d := draw % draws
			draw++
			if r := resets[d]; r >= 0 && r != n {
				timers[r].Cancel()
				timers[r] = k.MustSchedule(long[d], fns[r])
			}
			timers[n] = k.MustSchedule(short[d], fns[n])
		}
	}
	for n := range fns {
		timers[n] = k.MustSchedule(short[n], fns[n])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(k.Pending()), "queued")
}

// BenchmarkMediumBusy measures one carrier-sense query on the 20x20
// Figure 8 grid at simulation power (about 20 audible neighbors per
// transmitter) while 1, 8, or 32 frames are in the air. One op is one
// Busy call; the queried node cycles over the whole grid.
func BenchmarkMediumBusy(b *testing.B) {
	for _, active := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("active=%d", active), func(b *testing.B) {
			k := sim.New(1)
			layout, err := topology.Grid(20, 20, 10)
			if err != nil {
				b.Fatal(err)
			}
			m, err := radio.NewMedium(k, layout, radio.DefaultParams(), 2)
			if err != nil {
				b.Fatal(err)
			}
			n := layout.N()
			for i := 0; i < n; i++ {
				m.SetRadio(packet.NodeID(i), true)
			}
			for j := 0; j < active; j++ {
				src := packet.NodeID(j * 37 % n) // spread across the grid
				pkt := &packet.Advertise{Src: src, ProgramID: 1, ProgramSegments: 5, SegID: 1, SegNominal: 128, TotalPackets: 640}
				if _, err := m.Transmit(src, pkt, radio.PowerSim); err != nil {
					b.Fatal(err)
				}
			}
			busy := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Busy(packet.NodeID(i % n)) {
					busy++
				}
			}
			b.StopTimer()
			if busy == 0 {
				b.Fatal("no node sensed a busy carrier")
			}
		})
	}
}
