package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"mnp/internal/engine"
	"mnp/internal/faults"
	"mnp/internal/invariant"
	"mnp/internal/metrics"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// tiledDigest runs a setup and folds the complete observable outcome —
// completion verdict and time, aggregate traffic, and every node's
// (completed, time, slots) row — into one hash, the same shape the
// root goldenSharded test pins. Two runs with equal digests reached
// byte-identical simulation states.
func tiledDigest(t *testing.T, s Setup) (string, *Result) {
	t.Helper()
	res, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if !res.Completed {
		t.Fatalf("%s: incomplete: %d/%d", s.Name, res.Network.CompletedCount(), res.Layout.N())
	}
	if res.Invariants != nil {
		if err := res.VerifyInvariants(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	snap := res.Collector.Snapshot(res.CompletionTime)
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v at=%v tx=%d rx=%d collisions=%d senders=%d\n",
		res.Completed, res.CompletionTime, snap.Tx, snap.Rx, snap.Collisions, snap.SenderEvents)
	for _, n := range res.Network.Nodes {
		fmt.Fprintf(&b, "%v completed=%v at=%v slots=%d\n",
			n.ID(), n.Completed(), n.CompletedAt(), n.EEPROM().Slots())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), res
}

// TestTiledEquivalenceMatrix is the headline determinism property of
// the tiled engine: for a fixed (seed, tile grid), the simulation
// outcome is byte-identical across every worker count, every executor
// count, and with the adaptive repartitioner off or on — scheduling is
// pure mechanism, never policy that leaks into results. The 1×1 grid
// routes down the sequential path and so also proves the tile plumbing
// adds nothing to a plain run.
func TestTiledEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("72-cell simulation matrix in -short mode")
	}
	grids := []engine.Grid{{Rows: 1, Cols: 1}, {Rows: 2, Cols: 2}, {Rows: 4, Cols: 2}, {Rows: 4, Cols: 4}}
	var totalMigrations int64
	for _, g := range grids {
		for _, seed := range []int64{42, 7, 99} {
			want := ""
			for _, workers := range []int{1, 2, 4} {
				for _, repart := range []bool{false, true} {
					s := Setup{
						Name: fmt.Sprintf("tiled-matrix-%s-s%d-w%d-r%v", g, seed, workers, repart),
						Rows: 6, Cols: 6, ImagePackets: 32, Seed: seed,
						Limit:    3 * time.Hour,
						TileRows: g.Rows, TileCols: g.Cols,
						Shards: 4, Workers: workers,
					}
					if g.Tiles() == 1 {
						s.Shards = 1
					}
					if repart {
						s.Repartition = true
						s.RepartitionEvery = 4
						s.RepartitionThreshold = 1.1
					}
					dig, res := tiledDigest(t, s)
					if want == "" {
						want = dig
					} else if dig != want {
						t.Fatalf("grid %s seed %d workers %d repart %v: digest %s, want %s — results are not a pure function of (seed, grid)",
							g, seed, workers, repart, dig, want)
					}
					if g.Tiles() == 1 {
						if res.Engine != nil {
							t.Fatalf("1x1 grid did not take the sequential path")
						}
						continue
					}
					if res.Engine == nil {
						t.Fatalf("grid %s run skipped the engine", g)
					}
					if res.TileGrid != g {
						t.Fatalf("ran grid %s, asked for %s", res.TileGrid, g)
					}
					st := res.Engine.Stats()
					if repart {
						totalMigrations += st.Migrations
					} else if st.Migrations != 0 {
						t.Fatalf("grid %s: %d migrations with the repartitioner off", g, st.Migrations)
					}
				}
			}
			// Executor count is a scheduling knob too: re-run one cell of
			// each multi-tile grid with 2 executors instead of 4.
			if g.Tiles() > 1 {
				s := Setup{
					Name: fmt.Sprintf("tiled-matrix-%s-s%d-x2", g, seed),
					Rows: 6, Cols: 6, ImagePackets: 32, Seed: seed,
					Limit:    3 * time.Hour,
					TileRows: g.Rows, TileCols: g.Cols,
					Shards: 2, Workers: 2,
					Repartition: true, RepartitionEvery: 4, RepartitionThreshold: 1.1,
				}
				if dig, _ := tiledDigest(t, s); dig != want {
					t.Fatalf("grid %s seed %d: 2-executor digest %s, want %s — executor count leaked into results",
						g, seed, dig, want)
				}
			}
		}
	}
	// The equivalence above would be vacuous if the repartitioner never
	// fired; the aggressive (every=4, threshold=1.1) tuning must have
	// actually migrated tiles somewhere in the matrix.
	if totalMigrations == 0 {
		t.Fatal("no cell of the matrix migrated a single tile; the repartitioner never engaged")
	}
	t.Logf("matrix clean; repartitioning cells moved %d tiles in total", totalMigrations)
}

// TestTiledValidate covers the tile-specific validation Build applies:
// grid shape, exclusivity with auto-sizing, tile budget, executor
// bounds, and repartitioner tuning.
func TestTiledValidate(t *testing.T) {
	valid := Setup{Name: "v", Rows: 4, Cols: 4, Spacing: 10, Shards: 2, TileRows: 2, TileCols: 2}
	cases := []struct {
		name    string
		mutate  func(*Setup)
		wantErr string
	}{
		{"valid-tiles", func(s *Setup) {}, ""},
		{"negative-rows", func(s *Setup) { s.TileRows = -1 }, "non-negative"},
		{"one-sided-grid", func(s *Setup) { s.TileCols = 0 }, "both rows and cols"},
		{"grid-and-auto", func(s *Setup) { s.TileAuto = true }, "mutually exclusive"},
		{"too-many-tiles", func(s *Setup) { s.TileRows, s.TileCols = 5, 5 }, "tiles"},
		{"shards-exceed-tiles", func(s *Setup) { s.Shards = 5 }, "exceed"},
		{"negative-period", func(s *Setup) { s.Repartition = true; s.RepartitionEvery = -1 }, "negative"},
		{"sub-one-threshold", func(s *Setup) { s.Repartition = true; s.RepartitionThreshold = 0.5 }, "at least 1"},
		{"tuning-without-repartition", func(s *Setup) { s.RepartitionEvery = 8 }, "repartition"},
		{"repartition-ok", func(s *Setup) {
			s.Repartition = true
			s.RepartitionEvery, s.RepartitionThreshold = 8, 1.5
		}, ""},
		{"auto-ok", func(s *Setup) { s.TileRows, s.TileCols = 0, 0; s.TileAuto = true }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestTiledChaosPartitionHeal ports the partition+heal chaos scenario
// to 2D tile grids: the fault window must quantize onto barriers, the
// isolated half must stall until the heal, and every invariant must
// hold through the replayed observation stream — exactly as on strips.
func TestTiledChaosPartitionHeal(t *testing.T) {
	cut := []packet.NodeID{8, 9, 10, 11, 12, 13, 14, 15}
	for _, g := range []engine.Grid{{Rows: 2, Cols: 2}, {Rows: 4, Cols: 4}} {
		t.Run(g.String(), func(t *testing.T) {
			res := runChaos(t, Setup{
				Name: "chaos-partition-tiled-" + g.String(),
				Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
				TileRows: g.Rows, TileCols: g.Cols, Shards: 4, Workers: 1,
				Faults: &faults.Plan{Events: []faults.Event{
					faults.Partition(cut, 10*time.Second, 90*time.Second),
				}},
			})
			if res.Engine == nil || res.TileGrid != g {
				t.Fatalf("run did not go through the %s tile engine", g)
			}
			if res.CompletionTime <= 90*time.Second {
				t.Fatalf("completed at %v, inside the partition window", res.CompletionTime)
			}
		})
	}
}

// TestTiledChaosCrashDuringForward kills two mid-grid forwarders with
// the deployment split into 2×2 tiles; the survivors must converge and
// the dead stay exactly the crashed pair.
func TestTiledChaosCrashDuringForward(t *testing.T) {
	res := runChaos(t, Setup{
		Name: "chaos-crash-tiled", Rows: 5, Cols: 5, ImagePackets: 128, Seed: 42,
		TileRows: 2, TileCols: 2, Shards: 4, Workers: 1,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Crash(6, 40*time.Second),
			faults.Crash(12, 70*time.Second),
		}},
	})
	if res.Engine == nil {
		t.Fatal("run did not go through the tile engine")
	}
	dead := 0
	for _, n := range res.Network.Nodes {
		if n.Dead() {
			dead++
		}
	}
	if dead != 2 {
		t.Fatalf("dead = %d, want the 2 crashed forwarders", dead)
	}
}

// TestTiledRepartitionDuringFaults proves migration is invisible to
// the simulation even while a fault window is reshaping the load: the
// same faulted run with the repartitioner off and on must produce
// identical digests and identical ghost-exchange totals — no boundary
// frame dropped or duplicated across a migration barrier — while the
// on-run demonstrably moves tiles.
// TestTiledChaosRebootFlakyEEPROM runs the tiled engine through node
// death, a reboot and flaky flash with the invariant checker attached:
// the run must complete with verified images, and the per-node fault
// RNGs and restart bookkeeping must keep the digest independent of the
// worker count.
func TestTiledChaosRebootFlakyEEPROM(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulations in -short mode")
	}
	want := ""
	for _, workers := range []int{1, 2} {
		dig, res := tiledDigest(t, Setup{
			Name: fmt.Sprintf("tiled-chaos-w%d", workers),
			Rows: 6, Cols: 6, ImagePackets: 32, Seed: 42,
			Limit:    4 * time.Hour,
			TileRows: 2, TileCols: 2,
			Shards: 4, Workers: workers,
			Faults: &faults.Plan{Events: []faults.Event{
				faults.Crash(29, 20*time.Second),
				faults.CrashReboot(7, 10*time.Second, 8*time.Second),
				faults.EEPROMErrors(11, 0.2, 0, 0),
			}},
			Invariants: &invariant.Config{},
		})
		if err := res.VerifyImages(); err != nil {
			t.Fatal(err)
		}
		if !res.Network.Node(29).Dead() || res.Network.Node(7).Dead() {
			t.Fatal("the crash and reboot did not land before completion")
		}
		if res.Network.Node(11).EEPROM().FaultCount() == 0 {
			t.Fatal("node 11 never hit an injected flash fault")
		}
		if want == "" {
			want = dig
		} else if dig != want {
			t.Fatalf("workers %d: chaos digest %s, want %s", workers, dig, want)
		}
	}
}

func TestTiledRepartitionDuringFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("two full faulted simulations in -short mode")
	}
	base := Setup{
		Name: "tiled-repart-faults", Rows: 5, Cols: 5, ImagePackets: 64, Seed: 42,
		Limit:    4 * time.Hour,
		TileRows: 4, TileCols: 4, Shards: 4, Workers: 2,
		Invariants: &invariant.Config{},
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Partition([]packet.NodeID{15, 16, 17, 18, 19, 20, 21, 22, 23, 24},
				10*time.Second, 90*time.Second),
		}},
	}
	off := base
	off.Name += "-off"
	on := base
	on.Name += "-on"
	on.Repartition, on.RepartitionEvery, on.RepartitionThreshold = true, 4, 1.1
	digOff, resOff := tiledDigest(t, off)
	digOn, resOn := tiledDigest(t, on)
	if digOff != digOn {
		t.Fatalf("repartitioning changed a faulted run: %s vs %s", digOff, digOn)
	}
	stOff, stOn := resOff.Engine.Stats(), resOn.Engine.Stats()
	if stOff.GhostsExported != stOn.GhostsExported {
		t.Fatalf("ghost totals diverged: %d exported without repartitioning, %d with — a boundary frame was dropped or duplicated",
			stOff.GhostsExported, stOn.GhostsExported)
	}
	if stOff.Migrations != 0 {
		t.Fatalf("%d migrations with the repartitioner off", stOff.Migrations)
	}
	if stOn.Migrations == 0 {
		t.Fatal("the fault window never triggered a migration; the test is vacuous")
	}
	if resOn.CompletionTime <= 90*time.Second {
		t.Fatalf("completed at %v, inside the partition window", resOn.CompletionTime)
	}
	t.Logf("digests equal across %d migrations (%d repartition barriers, %d ghosts)",
		stOn.Migrations, stOn.Repartitions, stOn.GhostsExported)
}

// orderObserver asserts the replayed global observation stream is
// totally ordered by (time, node): timestamps never run backwards, and
// within one timestamp node IDs never decrease. Storage operations
// carry no timestamp and are skipped.
type orderObserver struct {
	t      *testing.T
	lastAt time.Duration
	lastID packet.NodeID
	events int
}

func (o *orderObserver) check(id packet.NodeID, at time.Duration) {
	o.events++
	if at < o.lastAt {
		o.t.Errorf("observer replay ran backwards: %v after %v", at, o.lastAt)
	} else if at == o.lastAt && id < o.lastID {
		o.t.Errorf("observer replay at %v visited node %v after %v", at, id, o.lastID)
	}
	o.lastAt, o.lastID = at, id
}

func (o *orderObserver) NodeEvent(id packet.NodeID, at time.Duration, ev node.Event) {
	o.check(id, at)
}
func (o *orderObserver) RadioState(id packet.NodeID, at time.Duration, on bool) {
	o.check(id, at)
}
func (o *orderObserver) StorageOp(packet.NodeID, bool, int, int, int) {}

// TestTiledObserverReplayOrder is the ordering regression test for
// barrier replay under migration: with parallel workers, an aggressive
// repartitioner, and a mid-run crash, a single global observer must
// still see one stream sorted by (time, node) — migrating a tile to
// another executor must not reorder or tear its buffered observations.
func TestTiledObserverReplayOrder(t *testing.T) {
	obs := &orderObserver{t: t}
	res, err := Run(Setup{
		Name: "tiled-replay-order", Rows: 6, Cols: 6, ImagePackets: 32, Seed: 7,
		Limit:    3 * time.Hour,
		TileRows: 4, TileCols: 4, Shards: 4, Workers: 4,
		Repartition: true, RepartitionEvery: 4, RepartitionThreshold: 1.1,
		Observer: obs,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Crash(14, 50*time.Second),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if obs.events == 0 {
		t.Fatal("global observer saw no events")
	}
	if st := res.Engine.Stats(); st.Migrations == 0 {
		t.Fatal("no tile migrated; the ordering claim was not exercised under migration")
	} else {
		t.Logf("stream of %d observations stayed ordered across %d migrations",
			obs.events, st.Migrations)
	}
}

// TestTiledWavefrontSkew records the load-balance story behind the
// tile design: a dissemination wavefront sweeping outward from the
// base keeps strip partitions badly skewed (the strip holding the
// front does all the work), while 2D tiles plus the adaptive
// repartitioner spread the front across executors. Loads are
// deterministic (kernel events + deliveries), so the comparison is a
// stable regression check, and the logged numbers feed README /
// EXPERIMENTS.md.
func TestTiledWavefrontSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 8x8 simulations in -short mode")
	}
	run := func(s Setup) metrics.LoadSummary {
		s.Rows, s.Cols, s.ImagePackets, s.Seed = 8, 8, 64, 42
		s.Limit = 4 * time.Hour
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !res.Completed {
			t.Fatalf("%s: incomplete", s.Name)
		}
		sum := metrics.SummarizeLoads(res.LoadMatrix())
		if sum.Periods == 0 {
			t.Fatalf("%s: no load reports collected", s.Name)
		}
		return sum
	}
	strips := run(Setup{Name: "skew-strips", Shards: 4, Workers: 1})
	tiled := run(Setup{
		Name: "skew-tiled", TileRows: 4, TileCols: 4, Shards: 4, Workers: 1,
		Repartition: true, RepartitionEvery: 8, RepartitionThreshold: 1.1,
	})
	t.Logf("wavefront skew (max/mean executor load): strips mean=%.2f worst=%.2f over %d periods; 4x4 tiles+repartition mean=%.2f worst=%.2f over %d periods",
		strips.Mean, strips.Max, strips.Periods, tiled.Mean, tiled.Max, tiled.Periods)
	if tiled.Mean >= strips.Mean {
		t.Fatalf("tiles+repartitioning did not reduce mean imbalance: %.3f vs strips %.3f",
			tiled.Mean, strips.Mean)
	}
}

// TestTiledAutoGridRuns exercises the auto-sized grid end to end: the
// run must pick a non-trivial grid, complete, and report it.
func TestTiledAutoGridRuns(t *testing.T) {
	res, err := Run(Setup{
		Name: "tiled-auto", Rows: 6, Cols: 6, ImagePackets: 24, Seed: 42,
		TileAuto: true, Shards: 2, Workers: 2, Limit: 3 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Engine == nil || res.TileGrid.Tiles() < 2 {
		t.Fatalf("auto tiling produced grid %s without an engine run", res.TileGrid)
	}
}
