package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"mnp/internal/engine"
	"mnp/internal/experiment"
	"mnp/internal/invariant"
	"mnp/internal/metrics"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
)

// Step classes: what the wrapped traffic sink saw during one kernel
// Step.
const (
	stepRx    = iota // a reception or collision: radio finish → MAC → OnPacket
	stepTx           // a transmission start and no reception
	stepOther        // timers and backoff
	numSteps
)

var stepNames = [numSteps]string{"rx", "tx", "other"}

// queueStats samples the kernel queue depth (Pending, which includes
// cancelled timers not yet reaped).
type queueStats struct {
	peak    int
	sum, n  float64
	kernels []*sim.Kernel // engine path: the tile kernels summed per sample
}

func (q *queueStats) add(depth int) {
	q.peak = max(q.peak, depth)
	q.sum += float64(depth)
	q.n++
}

// sampleTiles adds one sample of the summed tile queues. It runs from
// the engine's barrier replay, where every tile kernel is parked.
func (q *queueStats) sampleTiles() {
	depth := 0
	for _, k := range q.kernels {
		depth += k.Pending()
	}
	q.add(depth)
}

func (q *queueStats) mean() float64 {
	if q.n == 0 {
		return 0
	}
	return q.sum / q.n
}

// counter is the traced run's Setup.Observer: it counts protocol
// events, radio toggles, and EEPROM accesses, and on the engine path
// samples the tile queues at each replayed observation.
type counter struct {
	nodeEvents, radioToggles, writes, reads uint64
	queue                                   *queueStats
}

func (c *counter) NodeEvent(packet.NodeID, time.Duration, node.Event) {
	c.nodeEvents++
	c.sample()
}

func (c *counter) RadioState(packet.NodeID, time.Duration, bool) {
	c.radioToggles++
	c.sample()
}

func (c *counter) StorageOp(_ packet.NodeID, write bool, _, _, _ int) {
	if write {
		c.writes++
	} else {
		c.reads++
	}
	c.sample()
}

func (c *counter) sample() {
	if c.queue.kernels != nil {
		c.queue.sampleTiles()
	}
}

// stepSink wraps the collector as the medium's traffic sink and notes
// which callbacks fire during the current Step.
type stepSink struct {
	inner       radio.TrafficSink
	sent, heard bool
}

func (s *stepSink) FrameSent(src packet.NodeID, kind packet.Kind, bytes int) {
	s.sent = true
	s.inner.FrameSent(src, kind, bytes)
}

func (s *stepSink) FrameReceived(dst, src packet.NodeID, kind packet.Kind, bytes int) {
	s.heard = true
	s.inner.FrameReceived(dst, src, kind, bytes)
}

func (s *stepSink) FrameCollided(dst, src packet.NodeID, kind packet.Kind) {
	s.heard = true
	s.inner.FrameCollided(dst, src, kind)
}

// tracedRep is one traced dissemination: call spans, layer counters,
// and (on the sequential path) per-Step durations by class.
type tracedRep struct {
	build, start, run, verify time.Duration
	sim                       simStats
	events                    uint64
	queue                     queueStats
	steps                     [numSteps][]int64 // ns per Step; empty on the engine path
	count                     counter
	deliveries                uint64
	cacheHits, cacheMisses    uint64
	cacheInvalidations        uint64
	moves                     uint64
	engine                    engine.Stats
	barrierWait               time.Duration
	imbalance                 float64
}

// runTraced builds and runs one dissemination with every hook
// attached: the counting observer, the online invariant checker, and,
// when the Result has a single kernel and medium, the Step-classifying
// sink with the benchmark driving the kernel itself. Otherwise it
// falls back to RunToCompletion. prof, when non-nil, brackets the run.
func runTraced(s experiment.Setup, prof *profiler) (tracedRep, error) {
	tr := tracedRep{}
	tr.count.queue = &tr.queue
	s.Observer = &tr.count
	s.Invariants = &invariant.Config{}
	runtime.GC()
	t0 := time.Now()
	res, err := experiment.Build(s)
	tr.build = time.Since(t0)
	if err != nil {
		return tr, err
	}
	var mediums []*radio.Medium
	if res.Kernel != nil && res.Medium != nil {
		mediums = []*radio.Medium{res.Medium}
		if err := prof.start(); err != nil {
			return tr, err
		}
		stepRun(res, &tr)
		prof.stop()
	} else {
		if res.Engine == nil {
			return tr, fmt.Errorf("%s: result has neither a kernel nor an engine", s.Name)
		}
		for _, sh := range res.Engine.Shards() {
			tr.queue.kernels = append(tr.queue.kernels, sh.Kernel)
			mediums = append(mediums, sh.Medium)
		}
		if err := prof.start(); err != nil {
			return tr, err
		}
		t := time.Now()
		res.RunToCompletion()
		tr.run = time.Since(t)
		prof.stop()
		if tr.start, err = timeStart(s); err != nil {
			return tr, err
		}
	}
	for _, m := range mediums {
		tr.deliveries += m.Deliveries()
		h, miss, inv, _ := m.CacheStats()
		tr.cacheHits += h
		tr.cacheMisses += miss
		tr.cacheInvalidations += inv
	}
	tr.moves = mediums[0].Geometry().Moves()
	if res.Engine != nil {
		tr.engine = res.Engine.Stats()
		var wait int64
		for _, lr := range res.Loads {
			for _, sl := range lr.Shards {
				tr.events += uint64(sl.Events)
				wait += sl.WaitNs
			}
		}
		tr.barrierWait = time.Duration(wait)
		tr.imbalance = metrics.SummarizeLoads(res.LoadMatrix()).Mean
	}
	t := time.Now()
	tr.sim, err = finish(res)
	tr.verify = time.Since(t)
	if err != nil {
		return tr, err
	}
	if err := res.VerifyInvariants(); err != nil {
		return tr, fmt.Errorf("%s: invariant violated: %w", s.Name, err)
	}
	return tr, nil
}

// stepRun drives a sequential Result exactly as Kernel.RunUntil with
// Network.AllCompleted would — the predicate first, then NextEventAt,
// Step, predicate — timing and classifying every Step and sampling the
// queue after it. It then fills in what RunToCompletion would have.
func stepRun(res *experiment.Result, tr *tracedRep) {
	k, nw, limit := res.Kernel, res.Network, res.Setup.Limit
	sink := &stepSink{inner: res.Collector}
	res.Medium.SetSink(sink)
	t0 := time.Now()
	nw.Start()
	last := time.Now()
	tr.start = last.Sub(t0)
	done := nw.AllCompleted()
	for !done {
		if next, ok := k.NextEventAt(); !ok || next > limit {
			break
		}
		sink.sent, sink.heard = false, false
		if !k.Step() {
			break
		}
		done = nw.AllCompleted()
		now := time.Now()
		class := stepOther
		switch {
		case sink.heard:
			class = stepRx
		case sink.sent:
			class = stepTx
		}
		tr.steps[class] = append(tr.steps[class], int64(now.Sub(last)))
		last = now
		tr.events++
		tr.queue.add(k.Pending())
	}
	tr.run = last.Sub(t0)
	res.Completed = done
	res.CompletionTime = nw.CompletionTime()
}

// timeStart times Network.Start on a fresh build of the same Setup, for
// the engine path, where RunToCompletion starts the network itself.
func timeStart(s experiment.Setup) (time.Duration, error) {
	s.Observer, s.Invariants = nil, nil
	res, err := experiment.Build(s)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	res.Network.Start()
	return time.Since(t), nil
}

// percentile returns the q-quantile (0 < q ≤ 1) of sorted values by
// the nearest-rank rule, or 0 for no values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// stepSpans summarizes one class of Step durations pooled over reps:
// Steps per rep, seconds per rep (median), and pooled p50/p99.
func stepSpans(reps []tracedRep, class int) (count int, secs float64, p50, p99 int64) {
	var pooled []int64
	var totals []float64
	for _, r := range reps {
		var sum int64
		for _, d := range r.steps[class] {
			sum += d
		}
		totals = append(totals, time.Duration(sum).Seconds())
		pooled = append(pooled, r.steps[class]...)
	}
	slices.Sort(pooled)
	return len(reps[0].steps[class]), median(totals), percentile(pooled, 0.5), percentile(pooled, 0.99)
}
