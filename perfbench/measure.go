package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mnp/internal/deluge"
	"mnp/internal/experiment"
	"mnp/internal/node"
)

// simStats are a run's simulated results. They are a pure function of
// the Setup: every rep of one seed, traced or not, must reproduce them
// exactly, and a change that only speeds up the simulator must leave
// them unchanged.
type simStats struct {
	completion, art        time.Duration
	tx, rx, collisions     int
	attempted, failedNodes int
}

// buildsPerRep is how many times each rep builds its Setup. A build
// takes milliseconds, so set-up time is the median over every build a
// run makes, not over its few disseminations.
const buildsPerRep = 5

// rep is one untraced dissemination: host-side costs plus the
// simulated results they bought.
type rep struct {
	setups         []time.Duration
	run            time.Duration
	mallocs, bytes uint64
	sim            simStats
}

// runUntraced builds and runs one dissemination with nothing attached
// but what the workload's Setup asks for, timing Build and
// RunToCompletion and counting the run's heap allocations. The Setup
// is built buildsPerRep times and the last build is run.
func runUntraced(s experiment.Setup) (rep, error) {
	var r rep
	var res *experiment.Result
	for range buildsPerRep {
		runtime.GC() // start every build from the same heap, not the last one's garbage
		t0 := time.Now()
		built, err := experiment.Build(s)
		r.setups = append(r.setups, time.Since(t0))
		if err != nil {
			return r, err
		}
		res = built
	}
	var err error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	res.RunToCompletion()
	r.run = time.Since(t1)
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.sim, err = finish(res)
	return r, err
}

// finish reads a finished run's simulated results and verifies every
// node's image.
func finish(res *experiment.Result) (simStats, error) {
	if res.Collector == nil {
		return simStats{}, fmt.Errorf("%s: run left no collector", res.Setup.Name)
	}
	snap := res.Collector.Snapshot(res.CompletionTime)
	st := simStats{
		completion: res.CompletionTime,
		art:        res.Collector.MeanActiveRadioTime(res.CompletionTime),
		tx:         snap.Tx,
		rx:         snap.Rx,
		collisions: snap.Collisions,
	}
	st.attempted, st.failedNodes = verify(res)
	if err := res.VerifyImages(); err != nil && st.failedNodes == 0 {
		return st, fmt.Errorf("%s: VerifyImages reports %v but every node checked out", res.Setup.Name, err)
	}
	if !res.Completed && st.failedNodes == 0 {
		return st, fmt.Errorf("%s: run incomplete but every node checked out", res.Setup.Name)
	}
	return st, nil
}

// verify checks every node of a finished run and returns how many it
// checked and how many failed. A node passes when it is alive,
// completed, wrote each EEPROM slot at most once, and stores an image
// byte-identical to the source.
func verify(res *experiment.Result) (attempted, failed int) {
	want := res.Image.Bytes()
	for _, n := range res.Network.Nodes {
		attempted++
		if !nodeVerified(res, n, want) {
			failed++
		}
	}
	return attempted, failed
}

func nodeVerified(res *experiment.Result, n *node.Node, want []byte) bool {
	if n.Dead() || !n.Completed() || n.EEPROM().MaxWriteCount() > 1 {
		return false
	}
	store := n.EEPROM()
	var got []byte
	if res.Setup.Protocol == experiment.ProtocolDeluge {
		// Deluge stores flat packet seq at page seq/P+1, offset seq%P.
		const p = deluge.DefaultPagePackets
		for seq := 0; seq < res.Image.TotalPackets(); seq++ {
			got = append(got, store.Read(seq/p+1, seq%p)...)
		}
	} else {
		data, err := res.Image.Reassemble(store.Read)
		if err != nil {
			return false
		}
		got = data
	}
	return bytes.Equal(got, want)
}
