// Package engine is the execution layer between one experiment and the
// simulation substrate. It offers two strategies over the same node,
// radio, and kernel code: the sequential strategy (one kernel drives
// everything, exactly the behavior the golden hashes pin down) and a
// sharded strategy that spatially partitions the deployment into K
// shards — each owning a kernel, a radio shard over the shared channel
// geometry, and its nodes — and advances them in conservative lockstep
// windows.
//
// The window length is the minimum cross-shard interaction latency: the
// airtime of the smallest possible frame. A frame transmitted in one
// window cannot end, and therefore cannot be delivered or finish
// corrupting anyone, before the next barrier; so shards run a window
// completely independently and exchange the boundary-crossing frames
// (radio.Ghost records) at the barrier. Outboxes are merged by
// (start, source, sequence) — a pure function of simulation state —
// never by goroutine arrival order, which is what makes a sharded run a
// deterministic function of (seed, shard count) even under -race.
//
// What sharding approximates (documented in DESIGN.md §4f): carrier
// sense and collisions across a shard boundary take effect at the next
// barrier rather than instantly (at most one window late, the window
// being one minimal frame airtime), and per-delivery random draws come
// from the owning shard's RNG stream rather than the single global one,
// so a sharded run is statistically — not bitwise — equivalent to the
// sequential run of the same seed.
package engine

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
)

// Shard is one partition cell of the deployment — since PR 7 a *tile*:
// a kernel, a radio shard over the shared geometry, and the IDs of the
// nodes it owns. All simulation state lives in the tile; the executors
// that advance tiles each window carry none, which is what lets the
// repartitioner migrate a tile between executors without touching
// results.
type Shard struct {
	Kernel *sim.Kernel
	Medium *radio.Medium
	Owned  []packet.NodeID
	// Bounds, when non-nil, is the bounding box around the owned
	// nodes' positions. The engine uses it to skip offering a ghost
	// frame to a tile entirely out of the sender's radio range — safe
	// because every potential receiver in the tile lies inside the box.
	// Nil disables the prefilter (the ghost is offered everywhere).
	Bounds *Rect
}

// Config parameterizes the sharded engine.
type Config struct {
	// Window is the lockstep window length; use ConservativeWindow.
	// It must not exceed the minimum frame airtime or cross-shard
	// frames could be due before the barrier that carries them.
	Window time.Duration
	// Workers selects the execution mode: <= 1 runs the tiles inline
	// on the calling goroutine (same results, no goroutines — the right
	// mode on a single-CPU host); anything larger runs executor 0 on
	// the calling goroutine and one worker goroutine for each further
	// executor. 0 picks inline when the process has one CPU.
	Workers int
	// Shards is the number of logical executors the tiles are assigned
	// to. 0 defaults to one executor per tile (the PR 4 strip engine's
	// shape). Executors are a scheduling concept only: results are
	// independent of the executor count, the tile→executor assignment,
	// and hence of anything the repartitioner does.
	Shards int
	// Repartition, when non-nil, enables the adaptive repartitioner:
	// at the end of every Every-window period the engine compares
	// per-executor loads (tile kernel events + frame deliveries, both
	// deterministic) and re-packs tiles onto executors when the
	// max/mean skew exceeds Threshold. Migration happens only at
	// barriers and moves no simulation state.
	Repartition *Repartition
	// OnLoad, when non-nil, receives a load report at the end of every
	// report period (Repartition.Every windows, or every 32 when the
	// repartitioner is off). Reports include wall-clock barrier wait
	// per executor; the repartitioner itself never reads wall time.
	OnLoad func(LoadReport)
}

// Repartition tunes the adaptive tile repartitioner.
type Repartition struct {
	// Every is the decision period in windows; 0 defaults to 32.
	Every int
	// Threshold is the max/mean executor-load ratio above which the
	// engine re-packs tiles; 0 defaults to 1.25. Values at or below 1
	// re-pack whenever any imbalance exists.
	Threshold float64
}

const (
	defaultRepartitionEvery     = 32
	defaultRepartitionThreshold = 1.25
)

// ShardLoad is one executor's share of a load report period.
type ShardLoad struct {
	Shard     int   // executor index
	Tiles     int   // tiles currently assigned to it
	Events    int64 // kernel events executed this period (deterministic)
	Delivered int64 // frames delivered to its nodes this period (deterministic)
	WaitNs    int64 // wall-clock time spent waiting at barriers (diagnostic only)
}

// LoadReport is the per-period load summary handed to Config.OnLoad.
type LoadReport struct {
	Window     int           // windows completed at the end of the period
	Barrier    time.Duration // simulated time of the closing barrier
	Shards     []ShardLoad   // one entry per executor
	Migrations int           // tiles migrated at this barrier
}

// Stats are cumulative engine counters. Every field is deterministic:
// equal for equal (seed, tile grid, executor count, repartitioner
// config), independent of worker count.
type Stats struct {
	Windows        int64 // lockstep windows executed (idle skips excluded)
	GhostsExported int64 // boundary frames drained from tile outboxes
	GhostsOffered  int64 // ghost insertions attempted after bounds routing
	Migrations     int64 // tiles moved between executors
	Repartitions   int64 // barriers at which at least one tile moved
}

// ConservativeWindow returns the largest safe lockstep window for a
// channel: the airtime of a minimum-size frame, the soonest any
// transmission can complete and so the soonest one shard's frame can
// affect another shard's state.
func ConservativeWindow(geo *radio.Geometry) time.Duration {
	return geo.Airtime(packet.FrameOverhead)
}

type globalEvent struct {
	at  time.Duration
	seq int
	fn  func()
}

// Engine drives a set of tiles in lockstep windows, scheduled onto a
// fixed number of logical executors.
type Engine struct {
	shards  []*Shard // the tiles; "shard" kept for API continuity
	window  time.Duration
	workers int

	barrier time.Duration // time of the last completed barrier
	globals []globalEvent // pending, sorted by (at, seq)
	gseq    int

	obs     node.Observer // replayed global observer, nil when unused
	tap     radio.Tap     // replayed global transmission tap
	buffers []*Buffer

	// replayNow is what Now returns: the current event's original time
	// while replaying buffered observations, the barrier otherwise.
	replayNow time.Duration

	// nExec logical executors advance the tiles; asn[tile] is the
	// owning executor. asn is only ever written at barriers, between
	// rounds, so executor goroutines read it race-free (barrier.go).
	nExec int
	asn   []int

	rep    *Repartition // resolved (defaults filled), nil when off
	onLoad func(LoadReport)
	every  int // report/decision period in windows

	// Per-tile load accumulators for the current period, plus the
	// delivery counter watermark from the previous period.
	tileEvents    []int64
	tileDelivered []int64
	lastDelivered []uint64
	execWaitNs    []int64 // per-executor barrier wait this period
	periodWindows int

	stats Stats

	// bar is the round protocol with the worker goroutines while
	// RunUntil runs in parallel mode; nil in inline mode.
	bar *barrier

	// routed is the exchange's scratch: the drained ghosts of one
	// barrier, tagged with their source tile.
	routed []routed
}

// execOp is the per-round command an executor runs against each of its
// tiles.
type execOp uint8

const (
	opRun  execOp = iota // run every tile to the barrier
	opStop               // worker goroutines exit
)

type execCmd struct {
	op execOp
	to time.Duration
}

// New builds an engine over the given shards. Shards must own disjoint
// node sets covering the deployment; the caller (experiment.Build)
// constructs them from Partition.
func New(cfg Config, shards []*Shard) (*Engine, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: no shards")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("engine: window %v must be positive", cfg.Window)
	}
	for i, sh := range shards {
		if sh == nil || sh.Kernel == nil || sh.Medium == nil {
			return nil, fmt.Errorf("engine: shard %d incomplete", i)
		}
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	nExec := cfg.Shards
	if nExec == 0 {
		nExec = len(shards)
	}
	if nExec < 1 || nExec > len(shards) {
		return nil, fmt.Errorf("engine: executor count %d outside [1, %d]", nExec, len(shards))
	}
	e := &Engine{
		shards:        shards,
		window:        cfg.Window,
		workers:       workers,
		buffers:       make([]*Buffer, len(shards)),
		nExec:         nExec,
		asn:           make([]int, len(shards)),
		onLoad:        cfg.OnLoad,
		every:         defaultRepartitionEvery,
		tileEvents:    make([]int64, len(shards)),
		tileDelivered: make([]int64, len(shards)),
		lastDelivered: make([]uint64, len(shards)),
		execWaitNs:    make([]int64, nExec),
	}
	// Initial assignment: contiguous tile blocks per executor. With one
	// tile per executor (the legacy strip shape) this is the identity.
	for ti := range e.asn {
		e.asn[ti] = ti * nExec / len(shards)
	}
	if cfg.Repartition != nil {
		rep := *cfg.Repartition
		if rep.Every <= 0 {
			rep.Every = defaultRepartitionEvery
		}
		if rep.Threshold == 0 {
			rep.Threshold = defaultRepartitionThreshold
		}
		e.rep = &rep
		e.every = rep.Every
	}
	for i := range e.buffers {
		e.buffers[i] = &Buffer{now: shards[i].Kernel.Now}
	}
	return e, nil
}

// Stats returns the engine's cumulative counters.
func (e *Engine) Stats() Stats { return e.stats }

// Assignment returns a copy of the current tile→executor assignment.
func (e *Engine) Assignment() []int {
	return append([]int(nil), e.asn...)
}

// Executors returns the number of logical executors.
func (e *Engine) Executors() int { return e.nExec }

// Shards returns the engine's shards (read-only; useful to tests and
// fault wiring).
func (e *Engine) Shards() []*Shard { return e.shards }

// Window returns the lockstep window length.
func (e *Engine) Window() time.Duration { return e.window }

// Now is the engine's observation clock: during barrier replay it reads
// the original time of the event being replayed, otherwise the current
// barrier. Wire it wherever a sequential run would use Kernel.Now for
// timestamping (telemetry, invariant checkers, trace logs).
func (e *Engine) Now() time.Duration { return e.replayNow }

// SetObserver installs the global observer fed by barrier replay. Per
// -shard observations are buffered with their original timestamps and
// replayed at each barrier in (time, node, sequence) order, so a
// single-instance observer (a trace log, a telemetry recorder, an
// invariant checker) sees one globally ordered stream exactly as it
// would in a sequential run.
func (e *Engine) SetObserver(obs node.Observer) { e.obs = obs }

// SetTap installs the global transmission tap, replayed like the
// observer stream (invariant checkers consume decoded packets).
func (e *Engine) SetTap(t radio.Tap) { e.tap = t }

// ShardObserver returns the buffering observer for shard i; experiment
// wiring appends it to the shard's observer chain when a global
// observer or tap is installed.
func (e *Engine) ShardObserver(i int) *Buffer { return e.buffers[i] }

// At schedules fn to run at the first barrier not earlier than t, with
// every shard quiesced and advanced to the barrier. Fault plans use it
// for whole-network actions (crashes, reboots, random kills): the
// callback may touch any shard's kernel, medium, or nodes. Quantizing
// to barriers delays an action by less than one window.
func (e *Engine) At(t time.Duration, fn func()) {
	ev := globalEvent{at: t, seq: e.gseq, fn: fn}
	e.gseq++
	i := sort.Search(len(e.globals), func(i int) bool {
		g := e.globals[i]
		return g.at > ev.at || (g.at == ev.at && g.seq > ev.seq)
	})
	e.globals = append(e.globals, globalEvent{})
	copy(e.globals[i+1:], e.globals[i:])
	e.globals[i] = ev
}

// RunUntil advances the simulation window by window until pred returns
// true or simulated time passes limit; it reports whether pred was
// satisfied. pred runs at barriers with all shards quiesced. Completion
// is detected up to one window later than in a sequential run, but
// completion *times* are exact (nodes record them on their own shard
// clocks).
func (e *Engine) RunUntil(pred func() bool, limit time.Duration) bool {
	stop := e.startWorkers()
	defer stop()
	// Observations from before the run (node Start at time zero) are
	// already buffered; replay them so pred and observers start from a
	// consistent view.
	e.replayBuffers()
	if pred() {
		return true
	}
	for e.barrier <= limit {
		e.runGlobals()
		if e.runWindow(pred, limit) {
			return true
		}
		if !e.skipIdle(limit) {
			return false // every queue drained; nothing can ever happen
		}
	}
	return false
}

// runWindow executes one lockstep window and reports
// whether pred is satisfied at its barrier.
func (e *Engine) runWindow(pred func() bool, limit time.Duration) bool {
	next := e.barrier + e.window
	if next > limit {
		// Final, clamped window: run events at limit exactly, to
		// match the sequential kernel's inclusive limit.
		next = limit + 1
	}
	e.advanceShards(next)
	e.exchange()
	e.barrier = next
	e.endWindow()
	e.replayBuffers()
	return pred()
}

// runGlobals executes every pending global event due at or before the
// current barrier, in (time, sequence) order, with every shard clock
// advanced to the barrier so callbacks observe a consistent "now".
func (e *Engine) runGlobals() {
	if len(e.globals) == 0 || e.globals[0].at > e.barrier {
		return
	}
	for _, sh := range e.shards {
		sh.Kernel.AdvanceTo(e.barrier)
	}
	for len(e.globals) > 0 && e.globals[0].at <= e.barrier {
		ev := e.globals[0]
		e.globals = e.globals[1:]
		ev.fn()
	}
}

// advanceShards runs every tile's kernel up to (exclusive) the next
// barrier and leaves its clock parked exactly at it, accumulating the
// per-tile event counts the repartitioner reads.
func (e *Engine) advanceShards(next time.Duration) {
	e.runRound(execCmd{op: opRun, to: next})
}

// runRound has every executor run one command against each of its
// tiles, inline or with the worker goroutines, and waits for all of
// them — the barrier the whole lockstep design hangs on. In parallel
// mode the coordinator is executor 0.
func (e *Engine) runRound(cmd execCmd) {
	b := e.bar
	if b == nil {
		for ti := range e.shards {
			e.execTile(ti, cmd.to)
		}
		return
	}
	round := b.publish(cmd, e.nExec-1)
	b.elapsed[0] = e.runExecutor(0, cmd)
	b.coord.wait(round, b.spin(), func() bool { return b.left.Load() == 0 })
	if e.rep != nil || e.onLoad != nil {
		slowest := slices.Max(b.elapsed)
		for x, el := range b.elapsed {
			e.execWaitNs[x] += int64(slowest - el)
		}
	}
}

// execTile runs one tile up to (exclusive) the barrier at to and parks
// its clock there, on the goroutine of the executor that owns it.
func (e *Engine) execTile(ti int, to time.Duration) {
	sh := e.shards[ti]
	n := sh.Kernel.RunBefore(to)
	sh.Kernel.AdvanceTo(to)
	e.tileEvents[ti] += int64(n)
}

// exchange moves boundary-crossing frames between tiles: every tile's
// outbox is drained, the union is ordered by (start, source,
// sequence), and each ghost is offered to every other tile whose
// bounding box lies within the sender's radio range (the medium then
// ignores ghosts inaudible to its nodes). Insertion order is a pure
// function of simulation state, so two runs — or the same run with a
// different worker count or tile→executor assignment — exchange
// identically. The bounds prefilter is exact-safe: Rect.Distance
// lower-bounds the sender's distance to every node in the tile, and an
// insertion it skips would have been a no-op (no audible receivers).
func (e *Engine) exchange() {
	all := e.routed[:0]
	for i, sh := range e.shards {
		for _, g := range sh.Medium.TakeOutbox() {
			all = append(all, routed{g: g, from: i})
		}
	}
	e.routed = all
	if len(all) == 0 {
		return
	}
	e.stats.GhostsExported += int64(len(all))
	slices.SortFunc(all, func(a, b routed) int {
		return cmp.Or(
			cmp.Compare(a.g.Start, b.g.Start),
			cmp.Compare(a.g.Src, b.g.Src),
			cmp.Compare(a.g.Seq, b.g.Seq))
	})
	for _, r := range all {
		for j, sh := range e.shards {
			if j == r.from {
				continue
			}
			if sh.Bounds != nil && r.g.RangeFt > 0 &&
				sh.Bounds.Distance(r.g.X, r.g.Y) > r.g.RangeFt {
				continue
			}
			e.stats.GhostsOffered++
			if err := sh.Medium.InsertGhost(r.g); err != nil {
				panic(fmt.Sprintf("engine: ghost exchange: %v", err))
			}
		}
	}
}

// routed is a drained ghost tagged with the tile it came from.
type routed struct {
	g    radio.Ghost
	from int
}

// endWindow closes a lockstep window: counts it, and at the end of
// each report period gathers per-executor loads, lets the
// repartitioner re-pack tiles, and emits the load report.
func (e *Engine) endWindow() {
	e.stats.Windows++
	if e.rep == nil && e.onLoad == nil {
		return
	}
	e.periodWindows++
	if e.periodWindows < e.every {
		return
	}
	for ti, sh := range e.shards {
		d := sh.Medium.Deliveries()
		e.tileDelivered[ti] = int64(d - e.lastDelivered[ti])
		e.lastDelivered[ti] = d
	}
	migrated := 0
	if e.rep != nil {
		migrated = e.repartition()
	}
	if e.onLoad != nil {
		loads := make([]ShardLoad, e.nExec)
		for x := range loads {
			loads[x].Shard = x
			loads[x].WaitNs = e.execWaitNs[x]
		}
		for ti := range e.shards {
			l := &loads[e.asn[ti]]
			l.Tiles++
			l.Events += e.tileEvents[ti]
			l.Delivered += e.tileDelivered[ti]
		}
		e.onLoad(LoadReport{
			Window:     int(e.stats.Windows),
			Barrier:    e.barrier,
			Shards:     loads,
			Migrations: migrated,
		})
	}
	for ti := range e.tileEvents {
		e.tileEvents[ti] = 0
	}
	for x := range e.execWaitNs {
		e.execWaitNs[x] = 0
	}
	e.periodWindows = 0
}

// repartition re-packs tiles onto executors when the deterministic
// per-executor load skew (max/mean of kernel events + deliveries this
// period) exceeds the threshold. It runs at a barrier, between rounds,
// and only rewrites the tile→executor
// assignment — no kernel, medium, node, or RNG state moves — so it
// cannot affect simulation results. Returns the number of tiles moved.
func (e *Engine) repartition() int {
	if e.nExec < 2 {
		return 0
	}
	tload := make([]int64, len(e.shards))
	for ti := range e.shards {
		tload[ti] = e.tileEvents[ti] + e.tileDelivered[ti]
	}
	newAsn, moved := planAssignment(tload, e.asn, e.nExec, e.rep.Threshold)
	if moved == 0 {
		return 0
	}
	copy(e.asn, newAsn)
	e.stats.Migrations += int64(moved)
	e.stats.Repartitions++
	return moved
}

// planAssignment decides the next tile→executor assignment from
// per-tile loads: if the current assignment's max/mean executor load
// exceeds threshold, tiles are greedily re-packed heaviest-first onto
// the least-loaded executor (LPT), ties keeping the current owner to
// minimize churn, then the lowest executor index. Pure function — the
// core the repartitioner's determinism rests on.
func planAssignment(tload []int64, cur []int, nExec int, threshold float64) ([]int, int) {
	var total int64
	eload := make([]int64, nExec)
	for ti, l := range tload {
		eload[cur[ti]] += l
		total += l
	}
	if total == 0 {
		return cur, 0
	}
	var max int64
	for _, l := range eload {
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(nExec)
	if float64(max) <= threshold*mean {
		return cur, 0
	}
	order := make([]int, len(tload))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if tload[ta] != tload[tb] {
			return tload[ta] > tload[tb]
		}
		return ta < tb
	})
	sums := make([]int64, nExec)
	next := make([]int, len(tload))
	for _, ti := range order {
		best := 0
		for x := 1; x < nExec; x++ {
			if sums[x] < sums[best] {
				best = x
			} else if sums[x] == sums[best] && x == cur[ti] {
				best = x
			}
		}
		next[ti] = best
		sums[best] += tload[ti]
	}
	moved := 0
	for ti := range next {
		if next[ti] != cur[ti] {
			moved++
		}
	}
	return next, moved
}

// skipIdle fast-forwards over empty windows: when the earliest pending
// event (any shard's queue, or a global) is more than a window away,
// the intervening barriers are no-ops — no frames can be in flight
// (their finish events would be pending) — so the barrier jumps to the
// window containing that event. Returns false when nothing is pending
// anywhere, i.e. the simulation is over.
func (e *Engine) skipIdle(limit time.Duration) bool {
	earliest := time.Duration(-1)
	for _, sh := range e.shards {
		if at, ok := sh.Kernel.NextEventAt(); ok && (earliest < 0 || at < earliest) {
			earliest = at
		}
	}
	if len(e.globals) > 0 && (earliest < 0 || e.globals[0].at < earliest) {
		earliest = e.globals[0].at
	}
	if earliest < 0 {
		return false
	}
	if gap := earliest - e.barrier; gap > e.window {
		e.barrier += e.window * (gap / e.window)
	}
	return true
}

// replayBuffers merges every shard's buffered observations by
// (time, node, local sequence) and replays them into the global
// observer and tap, substituting each event's original time into the
// engine clock. With no global observer installed the buffers stay
// empty and this is free.
func (e *Engine) replayBuffers() {
	defer func() { e.replayNow = e.barrier }()
	if e.obs == nil && e.tap == nil {
		return
	}
	cursors := make([]int, len(e.buffers))
	for {
		best := -1
		for s, b := range e.buffers {
			if cursors[s] >= len(b.recs) {
				continue
			}
			if best < 0 || b.recs[cursors[s]].less(&e.buffers[best].recs[cursors[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		rec := &e.buffers[best].recs[cursors[best]]
		cursors[best]++
		e.replayNow = rec.at
		rec.deliver(e.obs, e.tap)
	}
	for _, b := range e.buffers {
		b.recs = b.recs[:0]
	}
}
