// Command perfbench is the repository benchmark: it runs one named
// dissemination workload for a fixed wall-time budget and prints its
// metrics as JSON on the last line of standard output.
//
//	perfbench --workload f8-mnp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs:
// host-side set-up time, run time, allocations and peak memory, and the
// simulated completion time, active radio time and transmissions. With
// --trace 1 it adds a traced run of the same seed and reports per-layer
// metrics instead. Every run verifies every node's image; a failure is
// reported in the JSON and makes the exit status non-zero. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"syscall"
	"time"

	"mnp/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard
// output. Attempted and Failed count nodes over every dissemination
// the run made.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	names []string // metric names in the order they were added
	notes []string // why Correct is false
	reps  string   // how many disseminations the run made
}

func (r *report) add(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{value, unit}
	r.names = append(r.names, name)
}

// fail marks the report incorrect, noting why.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a finished run's node verdicts.
func (r *report) count(st simStats) {
	r.Attempted += st.attempted
	r.Failed += st.failedNodes
	if st.failedNodes > 0 {
		r.fail("%d of %d nodes failed verification", st.failedNodes, st.attempted)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "run seed")
	seconds := fs.Float64("seconds", 10, "wall-time budget in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *trace == 1 {
		rep, err = measureLayers(w.setup(*seed), budget)
	} else {
		rep, err = measureEndToEnd(w.setup(*seed), budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %s\n", w.name, *seed, rep.reps)
	for _, n := range rep.names {
		fmt.Fprintf(stderr, "%-28s %18.6f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stderr, "perfbench: FAILED:", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measureEndToEnd repeats untraced disseminations of one seed until the
// budget is spent (at least one) and reports medians. Every rep must
// reproduce the first rep's simulated results exactly.
func measureEndToEnd(s experiment.Setup, budget time.Duration) (report, error) {
	out := report{Correct: true}
	var reps []rep
	for t0 := time.Now(); len(reps) == 0 || time.Since(t0) < budget; {
		r, err := runUntraced(s)
		if err != nil {
			return out, err
		}
		out.count(r.sim)
		if len(reps) > 0 && r.sim != reps[0].sim {
			out.fail("rep %d simulated %+v, rep 0 %+v", len(reps), r.sim, reps[0].sim)
		}
		reps = append(reps, r)
	}
	pick := func(f func(rep) float64) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return median(vals)
	}
	var setups []float64
	for _, r := range reps {
		for _, d := range r.setups {
			setups = append(setups, d.Seconds())
		}
	}
	first := reps[0].sim
	out.add("setup_s", median(setups), "s")
	out.add("run_s", pick(func(r rep) float64 { return r.run.Seconds() }), "s")
	out.add("allocs_m", pick(func(r rep) float64 { return float64(r.mallocs) / 1e6 }), "millions")
	out.add("alloc_mb", pick(func(r rep) float64 { return float64(r.bytes) / 1e6 }), "MB")
	rss, err := peakRSS()
	if err != nil {
		return out, err
	}
	out.add("peak_rss_mb", rss, "MB")
	out.add("verified_ratio", float64(out.Attempted-out.Failed)/float64(out.Attempted), "ratio")
	out.add("completion_sim_s", first.completion.Seconds(), "sim_s")
	out.add("art_mean_s", first.art.Seconds(), "sim_s")
	out.add("tx_frames", float64(first.tx), "count")
	out.reps = fmt.Sprintf("%d reps", len(reps))
	return out, nil
}

// measureLayers runs untraced reps for a third of the budget (at least
// one), then traced reps of the same seed for the rest (at least one),
// and reports per-layer metrics. Traced and untraced runs must agree
// exactly on every simulated result, and traced reps on every count.
func measureLayers(s experiment.Setup, budget time.Duration) (report, error) {
	out := report{Correct: true}
	t0 := time.Now()
	var plain []float64
	var want simStats
	for len(plain) == 0 || time.Since(t0) < budget/3 {
		r, err := runUntraced(s)
		if err != nil {
			return out, err
		}
		out.count(r.sim)
		if len(plain) == 0 {
			want = r.sim
		} else if r.sim != want {
			out.fail("untraced rep %d simulated %+v, rep 0 %+v", len(plain), r.sim, want)
		}
		plain = append(plain, r.run.Seconds())
	}
	prof := &profiler{}
	var reps []tracedRep
	for len(reps) == 0 || time.Since(t0) < budget {
		tr, err := runTraced(s, prof)
		if err != nil {
			return out, err
		}
		out.count(tr.sim)
		if tr.sim != want {
			out.fail("traced rep %d simulated %+v, untraced %+v", len(reps), tr.sim, want)
		}
		if len(reps) > 0 && tr.counts() != reps[0].counts() {
			out.fail("traced rep %d counted %+v, rep 0 %+v", len(reps), tr.counts(), reps[0].counts())
		}
		reps = append(reps, tr)
	}
	if prof.err != nil {
		return out, prof.err
	}
	spans := func(f func(tracedRep) time.Duration) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r).Seconds()
		}
		return median(vals)
	}
	r := reps[0]
	st := r.sim
	nodes := float64(st.attempted)
	shares, samples := fold(prof.stacks)

	out.add("sim.events", float64(r.events), "count")
	out.add("sim.queue_peak", float64(r.queue.peak), "count")
	out.add("sim.queue_mean", r.queue.mean(), "count")
	out.add("radio.frames", float64(st.tx), "count")
	out.add("radio.deliveries", float64(r.deliveries), "count")
	out.add("radio.collisions", float64(st.collisions), "count")
	out.add("radio.rx_per_frame", ratio(float64(st.rx), float64(st.tx)), "ratio")
	out.add("radio.rx_useful_ratio", ratio(float64(st.rx), float64(st.rx+st.collisions)), "ratio")
	out.add("radio.link_cache_hit_ratio", ratio(float64(r.cacheHits), float64(r.cacheHits+r.cacheMisses)), "ratio")
	out.add("radio.link_cache_invalidations", float64(r.cacheInvalidations), "count")
	out.add("node.radio_toggles", float64(r.count.radioToggles), "count")
	out.add("core.node_events", float64(r.count.nodeEvents), "count")
	out.add("eeprom.writes", float64(r.count.writes), "count")
	out.add("eeprom.reads", float64(r.count.reads), "count")
	out.add("eeprom.write_once_ratio", ratio(float64(r.count.writes), nodes*float64(s.ImagePackets)), "ratio")
	out.add("engine.windows", float64(r.engine.Windows), "count")
	out.add("engine.events_per_window", ratio(float64(r.events), float64(r.engine.Windows)), "ratio")
	out.add("engine.ghosts_exported", float64(r.engine.GhostsExported), "count")
	out.add("engine.ghosts_offered", float64(r.engine.GhostsOffered), "count")
	out.add("engine.barrier_wait_s", spans(func(r tracedRep) time.Duration { return r.barrierWait }), "s")
	out.add("engine.imbalance", r.imbalance, "ratio")
	out.add("topology.moves", float64(r.moves), "count")
	for _, l := range layers {
		out.add(l+".cpu_share", shares[l], "ratio")
	}
	out.add("profile.samples", float64(samples), "count")
	for class, name := range stepNames {
		count, secs, p50, p99 := stepSpans(reps, class)
		out.add("step."+name+".count", float64(count), "count")
		out.add("step."+name+".s", secs, "s")
		out.add("step."+name+".ns_p50", float64(p50), "ns")
		out.add("step."+name+".ns_p99", float64(p99), "ns")
	}
	runS := spans(func(r tracedRep) time.Duration { return r.start + r.run })
	out.add("span.build_s", spans(func(r tracedRep) time.Duration { return r.build }), "s")
	out.add("span.start_s", spans(func(r tracedRep) time.Duration { return r.start }), "s")
	out.add("span.run_s", runS, "s")
	out.add("span.verify_s", spans(func(r tracedRep) time.Duration { return r.verify }), "s")
	out.add("trace.overhead_ratio", runS/median(plain), "ratio")
	out.reps = fmt.Sprintf("%d untraced and %d traced reps", len(plain), len(reps))
	return out, nil
}

// layerCounts are a traced rep's deterministic counts, equal on every
// rep of one seed.
type layerCounts struct {
	events, deliveries, invalidations, moves uint64
	nodeEvents, toggles, writes, reads       uint64
	windows, exported, offered               int64
}

func (tr tracedRep) counts() layerCounts {
	return layerCounts{
		tr.events, tr.deliveries, tr.cacheInvalidations, tr.moves,
		tr.count.nodeEvents, tr.count.radioToggles, tr.count.writes, tr.count.reads,
		tr.engine.Windows, tr.engine.GhostsExported, tr.engine.GhostsOffered,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSS returns the process's peak resident set in MB (10^6 bytes).
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}
