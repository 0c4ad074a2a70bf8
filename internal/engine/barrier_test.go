package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// trafficNet is a small tiled deployment under random broadcast
// traffic: an 8×8 grid on 2×2 tiles whose nodes transmit at
// pseudo-random intervals, so every window runs events on every tile
// and boundary frames cross at most barriers. Per-node counters are
// written only by the owning tile's kernel, so they are race-free under
// any worker count.
type trafficNet struct {
	e      *Engine
	tx, rx []int64
	digest []uint64 // per node: fold of (reception time, source)
}

func newTrafficNet(t *testing.T, cfg Config) *trafficNet {
	t.Helper()
	layout, err := topology.Grid(8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := radio.NewGeometry(layout, radio.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := TilePartition(layout, Grid{Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := layout.N()
	tn := &trafficNet{tx: make([]int64, n), rx: make([]int64, n), digest: make([]uint64, n)}
	shards := make([]*Shard, len(tiles))
	for i, tl := range tiles {
		k := sim.New(int64(100 + i))
		m, err := radio.NewShardMedium(k, geo, tl.Owned)
		if err != nil {
			t.Fatal(err)
		}
		bounds := tl.Bounds
		shards[i] = &Shard{Kernel: k, Medium: m, Owned: tl.Owned, Bounds: &bounds}
		for _, id := range tl.Owned {
			tn.wireNode(k, m, id)
		}
	}
	cfg.Window = ConservativeWindow(geo)
	tn.e, err = New(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// wireNode registers node id's receive handler and starts its transmit
// loop: every 20–220 ms, drawn from a per-node splitmix64 stream, it
// broadcasts an advertisement unless the channel is busy.
func (tn *trafficNet) wireNode(k *sim.Kernel, m *radio.Medium, id packet.NodeID) {
	if err := m.Register(id, func(p packet.Packet, meta radio.RxMeta) {
		tn.rx[id]++
		tn.digest[id] = (tn.digest[id]^uint64(meta.At)^uint64(meta.From)<<48)*1099511628211 + 1
	}); err != nil {
		panic(err)
	}
	m.SetRadio(id, true)
	state := uint64(id) + 1
	var fire func()
	fire = func() {
		if !m.Busy(id) && !m.Transmitting(id) {
			pkt := &packet.Advertise{Src: id, ProgramID: 1, ProgramSegments: 1, SegID: 1, SegNominal: 8, TotalPackets: 8}
			if _, err := m.Transmit(id, pkt, radio.PowerSim); err == nil {
				tn.tx[id]++
			}
		}
		state += 0x9E3779B97F4A7C15
		z := (state ^ state>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		k.MustSchedule(20*time.Millisecond+time.Duration(z%uint64(200*time.Millisecond)), fire)
	}
	k.MustSchedule(time.Duration(id)*time.Millisecond, fire)
}

// outcome is everything a run must reproduce regardless of workers.
type outcome struct {
	Tx, Rx     []int64
	Digest     []uint64
	Stats      Stats
	Assignment []int
	Clocks     []time.Duration
}

func (tn *trafficNet) outcome() outcome {
	o := outcome{
		Tx:         append([]int64(nil), tn.tx...),
		Rx:         append([]int64(nil), tn.rx...),
		Digest:     append([]uint64(nil), tn.digest...),
		Stats:      tn.e.Stats(),
		Assignment: tn.e.Assignment(),
	}
	for _, sh := range tn.e.Shards() {
		o.Clocks = append(o.Clocks, sh.Kernel.Now())
	}
	return o
}

// runBounded calls RunUntil on its own goroutine and fails the test if
// it has not returned within a generous deadline: a barrier that loses
// a wake or misses a round deadlocks instead of failing.
func runBounded(t *testing.T, e *Engine, pred func() bool, limit time.Duration) bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- e.RunUntil(pred, limit) }()
	select {
	case ok := <-done:
		return ok
	case <-time.After(30 * time.Second):
		t.Fatalf("RunUntil(limit %v) did not return: barrier deadlock", limit)
		return false
	}
}

// quietGoroutines returns the goroutine count once it has stopped
// changing, so goroutines of an earlier run that are still exiting do
// not inflate a baseline.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// settle waits until the goroutine count is back to base: RunUntil's
// workers, and runBounded's runner, signal before they exit, so the
// runtime may retire them a moment after RunUntil returns.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after RunUntil, want %d: leaked workers", got, base)
	}
}

// withProcs runs fn with GOMAXPROCS set to procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// Every barrier configuration — K ∈ {2, 3, 4} executors over four
// tiles, GOMAXPROCS 1 (every wait parks), 2, and K (all waits spin
// first when K fits) — must reproduce the inline run exactly: traffic,
// reception digests, Stats, the repartitioner's assignment, and the
// tile clocks. Each run is split over several RunUntil calls, so worker
// start-up and shutdown repeat on one engine, and a global event at
// every 500 ms checks that executor 0 runs on the coordinator (exactly
// K-1 worker goroutines) and that spinning is gated on GOMAXPROCS.
func TestBarrierMatchesInline(t *testing.T) {
	stops := []time.Duration{2 * time.Second, 5 * time.Second, 8 * time.Second}
	run := func(t *testing.T, shards, workers int) outcome {
		tn := newTrafficNet(t, Config{
			Workers: workers, Shards: shards,
			Repartition: &Repartition{Every: 8, Threshold: 1.01},
		})
		base := quietGoroutines()
		for at := 250 * time.Millisecond; at < stops[len(stops)-1]; at += 500 * time.Millisecond {
			tn.e.At(at, func() {
				if workers <= 1 {
					return
				}
				b := tn.e.bar
				if b == nil {
					t.Errorf("at %v: parallel run without a barrier", at)
					return
				}
				if got := busyExecs.Load(); got != int32(shards) {
					t.Errorf("at %v: %d busy executors, want %d", at, got, shards)
				}
				if want := runtime.GOMAXPROCS(0) >= shards; b.spin() != want {
					t.Errorf("at %v: spin = %v with GOMAXPROCS %d and %d executors", at, b.spin(), runtime.GOMAXPROCS(0), shards)
				}
				// +1: runBounded's goroutine is the coordinator.
				if got, want := runtime.NumGoroutine(), base+1+shards-1; got != want {
					t.Errorf("at %v: %d goroutines, want %d (%d workers besides the coordinator)", at, got, want, shards-1)
				}
			})
		}
		for _, limit := range stops {
			settle(t, base)
			if runBounded(t, tn.e, func() bool { return false }, limit) {
				t.Fatalf("limit %v: never-true predicate reported satisfied", limit)
			}
		}
		return tn.outcome()
	}
	want := run(t, 3, 1)
	if want.Stats.GhostsOffered == 0 || want.Stats.Migrations == 0 {
		t.Fatalf("workload too tame to test the barrier: %+v", want.Stats)
	}
	for _, shards := range []int{2, 3, 4} {
		procsList := []int{1, 2}
		if shards > 2 {
			procsList = append(procsList, shards)
		}
		for _, procs := range procsList {
			t.Run(fmt.Sprintf("K=%d/procs=%d", shards, procs), func(t *testing.T) {
				withProcs(procs, func() {
					inline := run(t, shards, 1)
					par := run(t, shards, shards)
					if !reflect.DeepEqual(par, inline) {
						t.Fatalf("parallel run diverges from inline:\nparallel %+v\ninline   %+v", par.Stats, inline.Stats)
					}
					// Results are independent of the executor count; the
					// assignment is not (it names executors).
					if !reflect.DeepEqual(par.Digest, want.Digest) || !reflect.DeepEqual(par.Tx, want.Tx) {
						t.Fatal("results depend on the executor count")
					}
				})
			})
		}
	}
}

// A global callback that outlasts the spin budget must leave every
// worker parked, and the next round must wake them all. A barrier that
// only spins never parks, and fails here.
func TestBarrierParksAndWakes(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(procs, func() {
				const shards = 3
				inline := newTrafficNet(t, Config{Workers: 1, Shards: shards})
				tn := newTrafficNet(t, Config{Workers: shards, Shards: shards})
				parked := 0
				for _, at := range []time.Duration{300 * time.Millisecond, 900 * time.Millisecond} {
					inline.e.At(at, func() {})
					tn.e.At(at, func() {
						time.Sleep(10 * spinBudget)
						deadline := time.Now().Add(5 * time.Second)
						for x := 1; x < shards; x++ {
							p := tn.e.bar.workers[x]
							for p.parked.Load() == 0 && time.Now().Before(deadline) {
								time.Sleep(time.Millisecond)
							}
							if p.parked.Load() == 0 {
								t.Errorf("at %v: worker %d still not parked after the spin budget", at, x)
							} else {
								parked++
							}
						}
					})
				}
				runBounded(t, inline.e, func() bool { return false }, 1500*time.Millisecond)
				runBounded(t, tn.e, func() bool { return false }, 1500*time.Millisecond)
				if parked != 2*(shards-1) {
					t.Fatalf("%d parked-worker observations, want %d", parked, 2*(shards-1))
				}
				if !reflect.DeepEqual(tn.outcome(), inline.outcome()) {
					t.Fatal("run with parked workers diverges from inline")
				}
			})
		})
	}
}

// RunUntil must stop every worker goroutine before it returns, after a
// predicate stop as well as at the limit.
func TestBarrierLeavesNoGoroutines(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(procs, func() {
				base := quietGoroutines()
				tn := newTrafficNet(t, Config{Workers: 4, Shards: 4})
				if !runBounded(t, tn.e, func() bool { return tn.e.Stats().Windows >= 50 }, time.Hour) {
					t.Fatal("predicate stop not reported")
				}
				settle(t, base)
				if runBounded(t, tn.e, func() bool { return false }, time.Second) {
					t.Fatal("never-true predicate reported satisfied")
				}
				settle(t, base)
			})
		})
	}
}

// The spin gate counts the executors of every engine in the process.
// Engine A (two executors) runs two more engines from a global
// callback, so for a while they all share the host: a second parallel
// engine B with two executors, then an inline engine C (one). Spinning
// must stop whenever the total exceeds GOMAXPROCS, resume when the
// others return, and no engine's results may change.
func TestBarrierGateCountsEveryEngine(t *testing.T) {
	for _, procs := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(procs, func() {
				refA := newTrafficNet(t, Config{Workers: 1, Shards: 2})
				refB := newTrafficNet(t, Config{Workers: 1, Shards: 2})
				runBounded(t, refA.e, func() bool { return false }, 1500*time.Millisecond)
				runBounded(t, refB.e, func() bool { return false }, time.Second)
				if busyExecs.Load() != 0 {
					t.Fatalf("%d busy executors with no engine running", busyExecs.Load())
				}

				a := newTrafficNet(t, Config{Workers: 2, Shards: 2})
				b := newTrafficNet(t, Config{Workers: 2, Shards: 2})
				c := newTrafficNet(t, Config{Workers: 1, Shards: 2})
				checks := 0
				expect := func(who string, bar *barrier, busy int32) {
					checks++
					if got := busyExecs.Load(); got != busy {
						t.Errorf("%s: %d busy executors, want %d", who, got, busy)
					}
					if want := busy <= int32(procs); bar.spin() != want {
						t.Errorf("%s: spin = %v with %d busy executors on %d processors", who, bar.spin(), busy, procs)
					}
				}
				a.e.At(250*time.Millisecond, func() {
					expect("A alone", a.e.bar, 2)
					b.e.At(300*time.Millisecond, func() {
						expect("B beside A", b.e.bar, 4)
						expect("A beside B", a.e.bar, 4)
					})
					runBounded(t, b.e, func() bool { return false }, time.Second)
					c.e.At(300*time.Millisecond, func() { expect("A beside inline C", a.e.bar, 3) })
					runBounded(t, c.e, func() bool { return false }, 500*time.Millisecond)
				})
				a.e.At(750*time.Millisecond, func() { expect("A alone again", a.e.bar, 2) })
				runBounded(t, a.e, func() bool { return false }, 1500*time.Millisecond)
				if checks != 5 {
					t.Fatalf("%d gate checks ran, want 5", checks)
				}
				if busyExecs.Load() != 0 {
					t.Fatalf("%d busy executors after every engine returned", busyExecs.Load())
				}
				ra, rb := refA.outcome(), refB.outcome()
				if oa := a.outcome(); !reflect.DeepEqual(oa.Digest, ra.Digest) || oa.Stats != ra.Stats {
					t.Fatal("engine A diverges from its inline run")
				}
				if ob := b.outcome(); !reflect.DeepEqual(ob.Digest, rb.Digest) || ob.Stats != rb.Stats {
					t.Fatal("engine B diverges from its inline run")
				}
			})
		})
	}
}

// A panic in one of executor 0's tiles unwinds through RunUntil on the
// coordinator while a worker is still in the same round. RunUntil must
// let that worker finish before it publishes the stop command (under
// -race, an early publish races with the worker's read of the round's
// command, and the countdown goes below zero), then stop every worker
// and let the panic through.
func TestBarrierPanicInExecutorZero(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(procs, func() {
				base := quietGoroutines()
				tn := newTrafficNet(t, Config{Workers: 2, Shards: 2})
				// Tiles 0 and 1 belong to executor 0, tiles 2 and 3 to
				// executor 1; all three events fall in the same window.
				// Tile 0's pause lets the worker get into the round, and
				// tile 2's keeps it there while tile 1 panics.
				if asn := tn.e.Assignment(); asn[0] != 0 || asn[1] != 0 || asn[2] != 1 {
					t.Fatalf("assignment %v: want tiles 0 and 1 on executor 0, tile 2 on executor 1", asn)
				}
				const at = time.Second
				sh := tn.e.Shards()
				var finished atomic.Bool
				sh[0].Kernel.MustSchedule(at, func() { time.Sleep(5 * time.Millisecond) })
				sh[1].Kernel.MustSchedule(at, func() { panic("boom") })
				sh[2].Kernel.MustSchedule(at, func() {
					time.Sleep(20 * time.Millisecond)
					finished.Store(true)
				})
				var b *barrier
				tn.e.At(at/2, func() { b = tn.e.bar })
				got := make(chan any, 1)
				go func() {
					defer func() { got <- recover() }()
					tn.e.RunUntil(func() bool { return false }, 2*at)
				}()
				select {
				case v := <-got:
					if v != "boom" {
						t.Fatalf("recovered %v, want the tile's panic", v)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("RunUntil neither returned nor panicked: barrier deadlock")
				}
				if b == nil {
					t.Fatal("no barrier observed before the panic")
				}
				if !finished.Load() {
					t.Error("the worker's half of the panicking round never ran")
				}
				if left := b.left.Load(); left != 0 {
					t.Errorf("countdown at %d after the stop, want 0", left)
				}
				if tn.e.bar != nil || busyExecs.Load() != 0 {
					t.Errorf("engine still marked running: bar %v, %d busy executors", tn.e.bar, busyExecs.Load())
				}
				settle(t, base)
			})
		})
	}
}
