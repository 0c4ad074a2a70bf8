package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The lockstep barrier. A run of the 60×60 grid has ~290k windows of
// ~9 kernel events each, so the barrier must cost less than a window:
// a channel round-trip per executor per window did not. Instead,
//
//   - executor 0 runs inline on the coordinator (the RunUntil
//     goroutine); only executors 1…K-1 get worker goroutines;
//   - the coordinator publishes each round's command, sets left = K-1,
//     and bumps an epoch counter; a worker runs its tiles when it sees
//     a new epoch, then decrements left;
//   - the coordinator runs executor 0's tiles and waits for left == 0.
//
// Both waits spin for about spinBudget of wall time and then park on
// the waiter's wake channel. Spinning only pays when every executor
// has a processor of its own; otherwise a spinner steals the time slice
// of the goroutine it waits for, so every wait parks at once. Engines
// share the host: RunSeeds, campaigns and mnpexp -parallel run several
// at once, so the gate counts the executors of every engine in the
// process (busyExecs), not just this one's. Simulations that never
// build an engine are not counted.
//
// Memory ordering: everything the coordinator writes before bumping
// the epoch (the command, the tile→executor assignment, ghosts inserted
// at the barrier) happens before a worker's tiles run, and everything a
// worker writes before decrementing left (tile state, per-tile
// counters, its elapsed time) happens before the coordinator reads
// left == 0. The atomics and the wake channels carry both edges.

const (
	// spinBudget bounds how long a waiter polls before parking.
	spinBudget = 200 * time.Microsecond
	// spinCheck is how many polls pass between wall-clock checks, and
	// spinYield how many between runtime.Gosched calls.
	spinCheck = 256
	spinYield = 4096
)

// busyExecs counts the executors of every engine in this process that
// is inside RunUntil; an inline engine counts as one. Waits spin only
// while it is at most GOMAXPROCS.
var busyExecs atomic.Int32

// parker is one goroutine's park/wake handshake. Every wait carries a
// ticket unique to that wait (the epoch of the round it waits for; 0 is
// never used). The waiter announces itself by storing its ticket,
// re-checks its condition, and blocks on wake; the waker makes the
// condition true, then claims the announcement with a CAS from the
// ticket of the wait it satisfies before sending. Exactly one side
// clears the announcement, so no wake is lost — either the waiter's
// re-check sees the condition or the waker's CAS sees the announcement
// — and every token sent is received by the wait it was meant for. The
// ticket is what makes the second half hold: a waker delayed between
// its load and its CAS must not claim the waiter's next wait, which a
// plain "sleeping" flag cannot tell apart from the one it satisfied.
type parker struct {
	parked atomic.Uint64 // ticket of the announced wait, 0 when none
	wake   chan struct{}
}

func newParker() *parker { return &parker{wake: make(chan struct{}, 1)} }

// wait returns once ready reports true, spinning first when spin is
// set, then parking under ticket.
func (p *parker) wait(ticket uint64, spin bool, ready func() bool) {
	if spin && spinUntil(ready) {
		return
	}
	p.parked.Store(ticket)
	if ready() && p.parked.CompareAndSwap(ticket, 0) {
		return
	}
	// Either the condition is still false, or a waker already claimed
	// the announcement and its token is on the way.
	<-p.wake
}

// wakeUp releases p if it is parked (or about to park) in the wait
// holding ticket. Call it after making that wait's condition true.
func (p *parker) wakeUp(ticket uint64) {
	if p.parked.Load() == ticket && p.parked.CompareAndSwap(ticket, 0) {
		p.wake <- struct{}{}
	}
}

// spinUntil polls ready for about spinBudget of wall time, yielding the
// processor every spinYield polls, and reports whether it turned true.
// The clock is first read after spinCheck polls, so a wait that ends
// quickly never reads it.
func spinUntil(ready func() bool) bool {
	var deadline time.Time
	for i := 1; ; i++ {
		if ready() {
			return true
		}
		if i%spinCheck != 0 {
			continue
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(spinBudget)
		} else if now.After(deadline) {
			return false
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// barrier is the parallel-mode round protocol between the coordinator
// and the worker goroutines of executors 1…K-1.
type barrier struct {
	procs   int32           // GOMAXPROCS when the workers started
	cmd     execCmd         // the current round's command
	epoch   atomic.Uint64   // bumped once per round, after cmd is written
	left    atomic.Int32    // workers still running the current round
	elapsed []time.Duration // per-executor wall time of the current round
	coord   *parker         // the coordinator, waiting for left == 0
	workers []*parker       // indexed by executor; entry 0 unused
	exited  sync.WaitGroup
}

// spin reports whether the executors of every engine in the process
// fit in GOMAXPROCS, so a wait should spin before it parks.
func (b *barrier) spin() bool { return busyExecs.Load() <= b.procs }

// startWorkers spawns the worker goroutines for executors 1…K-1, or
// none in inline mode, and counts the engine's executors in busyExecs.
// The returned stop ends the workers and returns once every one has
// exited.
func (e *Engine) startWorkers() (stop func()) {
	if e.workers <= 1 || len(e.shards) == 1 || e.nExec == 1 {
		busyExecs.Add(1)
		return func() { busyExecs.Add(-1) }
	}
	busyExecs.Add(int32(e.nExec))
	b := &barrier{
		procs:   int32(runtime.GOMAXPROCS(0)),
		elapsed: make([]time.Duration, e.nExec),
		coord:   newParker(),
		workers: make([]*parker, e.nExec),
	}
	// Each worker takes the starting epoch as an argument: read inside
	// the goroutine, it could already include the first round's bump,
	// and the worker would wait forever for a round that has started.
	seen := b.epoch.Load()
	for x := 1; x < e.nExec; x++ {
		b.workers[x] = newParker()
		b.exited.Add(1)
		go e.work(b, x, seen)
	}
	e.bar = b
	return func() {
		// A panic in executor 0's tiles unwinds through here with the
		// round unfinished: the workers must finish it, and stop
		// reading its command, before the stop command overwrites it.
		if b.left.Load() != 0 {
			b.coord.wait(b.epoch.Load(), b.spin(), func() bool { return b.left.Load() == 0 })
		}
		b.publish(execCmd{op: opStop}, 0)
		b.exited.Wait()
		e.bar = nil
		busyExecs.Add(-int32(e.nExec))
	}
}

// publish starts a round: it writes the command, arms the countdown,
// bumps the epoch, and wakes any parked worker. It returns the new
// epoch, the round's ticket.
func (b *barrier) publish(cmd execCmd, left int) uint64 {
	b.cmd = cmd
	b.left.Store(int32(left))
	round := b.epoch.Add(1)
	for _, p := range b.workers[1:] {
		p.wakeUp(round)
	}
	return round
}

// work is executor me's goroutine: wait for a new epoch, run the
// round's command against the executor's tiles, report, repeat.
func (e *Engine) work(b *barrier, me int, seen uint64) {
	defer b.exited.Done()
	p := b.workers[me]
	for {
		// The coordinator cannot bump again before this worker
		// decrements left, so the round waited for is seen+1.
		p.wait(seen+1, b.spin(), func() bool { return b.epoch.Load() != seen })
		seen++
		if b.cmd.op == opStop {
			return
		}
		b.elapsed[me] = e.runExecutor(me, b.cmd)
		if b.left.Add(-1) == 0 {
			b.coord.wakeUp(seen)
		}
	}
}

// runExecutor runs cmd against every tile executor x owns and returns
// the wall time it took.
func (e *Engine) runExecutor(x int, cmd execCmd) time.Duration {
	start := time.Now()
	for ti := range e.shards {
		if e.asn[ti] == x {
			e.execTile(ti, cmd.to)
		}
	}
	return time.Since(start)
}
