package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"mnp/internal/experiment"
)

// small is a quick sequential dissemination with every Setup field set
// by grid20.
func small(proto experiment.ProtocolKind, seed int64) experiment.Setup {
	s := grid20("small", proto, seed)
	s.Rows, s.Cols = 5, 5
	s.ImagePackets = 64
	return s
}

// smallTiled routes the same deployment through the engine.
func smallTiled(seed int64) experiment.Setup {
	s := small(experiment.ProtocolMNP, seed)
	s.Rows, s.Cols = 8, 8
	s.TileRows, s.TileCols = 2, 2
	s.Shards, s.Workers = 2, 2
	return s
}

func TestStepLoopMatchesRun(t *testing.T) {
	for _, proto := range []experiment.ProtocolKind{experiment.ProtocolMNP, experiment.ProtocolDeluge} {
		s := small(proto, 3)
		want, err := experiment.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiment.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		var tr tracedRep
		stepRun(res, &tr)
		if res.Completed != want.Completed || res.CompletionTime != want.CompletionTime {
			t.Fatalf("%v: step loop completed=%v at %v, Run completed=%v at %v",
				proto, res.Completed, res.CompletionTime, want.Completed, want.CompletionTime)
		}
		got, exp := res.Collector.Snapshot(res.CompletionTime), want.Collector.Snapshot(want.CompletionTime)
		if got.Tx != exp.Tx || got.Rx != exp.Rx || got.Collisions != exp.Collisions {
			t.Fatalf("%v: step loop tx/rx/collisions %d/%d/%d, Run %d/%d/%d",
				proto, got.Tx, got.Rx, got.Collisions, exp.Tx, exp.Rx, exp.Collisions)
		}
		steps := 0
		for _, d := range tr.steps {
			steps += len(d)
		}
		if uint64(steps) != tr.events || tr.events == 0 {
			t.Fatalf("%v: %d classified steps for %d events", proto, steps, tr.events)
		}
	}
}

// TestTracedMatchesUntraced checks that the hooks perturb nothing: the
// traced run reproduces the untraced run's simulated results, and the
// bare Step loop's event count.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, s := range []experiment.Setup{small(experiment.ProtocolMNP, 5), small(experiment.ProtocolDeluge, 5)} {
		plain, err := runUntraced(s)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain.sim != traced.sim {
			t.Fatalf("%v: untraced %+v, traced %+v", s.Protocol, plain.sim, traced.sim)
		}
		res, err := experiment.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		var bare tracedRep
		stepRun(res, &bare)
		if bare.events != traced.events {
			t.Fatalf("%v: bare Step loop ran %d events, traced %d", s.Protocol, bare.events, traced.events)
		}
	}
}

// TestBothBranches runs the per-layer measurement on a Result with a
// single kernel (the Step loop) and on an engine Result (the
// RunToCompletion fallback): every metric except step.* is measured on
// both.
func TestBothBranches(t *testing.T) {
	seq, err := measureLayers(small(experiment.ProtocolMNP, 1), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := measureLayers(smallTiled(1), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]report{"sequential": seq, "engine": eng} {
		if !r.Correct || r.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d: %v", name, r.Correct, r.Failed, r.notes)
		}
		for _, m := range []string{"sim.events", "sim.queue_peak", "radio.frames", "radio.deliveries", "eeprom.writes", "core.node_events", "span.run_s", "span.start_s"} {
			if r.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, r.Metrics[m].Value)
			}
		}
		if got := r.Metrics["eeprom.write_once_ratio"].Value; got != 1 {
			t.Errorf("%s: write-once ratio %v, want 1", name, got)
		}
	}
	if seq.Metrics["step.other.count"].Value == 0 || eng.Metrics["step.other.count"].Value != 0 {
		t.Errorf("step.other.count: sequential %v, engine %v", seq.Metrics["step.other.count"].Value, eng.Metrics["step.other.count"].Value)
	}
	if seq.Metrics["engine.windows"].Value != 0 || eng.Metrics["engine.windows"].Value == 0 {
		t.Errorf("engine.windows: sequential %v, engine %v", seq.Metrics["engine.windows"].Value, eng.Metrics["engine.windows"].Value)
	}
	tiled, err := runUntraced(smallTiled(1))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(smallTiled(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.sim != traced.sim {
		t.Fatalf("engine: untraced %+v, traced %+v", tiled.sim, traced.sim)
	}
}

func TestVerifyCountsFailedNodes(t *testing.T) {
	for _, proto := range []experiment.ProtocolKind{experiment.ProtocolMNP, experiment.ProtocolDeluge} {
		res, err := experiment.Run(small(proto, 2))
		if err != nil {
			t.Fatal(err)
		}
		if n, failed := verify(res); n != 25 || failed != 0 {
			t.Fatalf("%v: %d of %d nodes failed a clean run", proto, failed, n)
		}
		res.Network.Nodes[7].EEPROM().EraseSegment(1)
		if _, failed := verify(res); failed != 1 {
			t.Fatalf("%v: %d nodes failed after erasing one node's first segment, want 1", proto, failed)
		}
		if _, err := finish(res); err != nil {
			t.Fatalf("%v: finish: %v", proto, err)
		}
	}
}

func TestAttribution(t *testing.T) {
	stacks := []stack{
		// Innermost program frame wins; the runtime frame below it and
		// the outer frames do not count.
		{[]string{"math.Pow", "mnp/internal/radio.(*Medium).finish", "mnp/internal/sim.(*Kernel).Step", "main.stepRun"}, 3},
		{[]string{"runtime.mallocgc", "mnp/internal/eeprom.(*Store).Write", "mnp/internal/node.(*Node).Store", "mnp/internal/core.(*MNP).OnPacket"}, 2},
		// Subpackages belong to their top-level package; unlisted
		// packages are "other".
		{[]string{"mnp/internal/node/nodetest.Run"}, 1},
		{[]string{"mnp/internal/packet.crc16", "mnp/internal/radio.(*Medium).finish"}, 1},
		// The benchmark's hooks, named as in a binary and in its test.
		{[]string{"main.(*stepSink).FrameSent", "mnp/internal/radio.(*Medium).Transmit"}, 1},
		{[]string{"mnp/perfbench.(*counter).NodeEvent", "mnp/internal/core.(*MNP).OnTimer"}, 1},
		// No program frame at all.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, 1},
		{nil, 1},
	}
	shares, total := fold(stacks)
	if total != 11 {
		t.Fatalf("total %d, want 11", total)
	}
	want := map[string]float64{"radio": 3, "eeprom": 2, "node": 1, "other": 1, "bench": 2, "runtime": 2}
	sum := 0.0
	for _, l := range layers {
		if got := shares[l]; math.Abs(got-want[l]/11) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, got, want[l]/11)
		}
		sum += shares[l]
	}
	if len(shares) != len(layers) || math.Abs(sum-1) > 1e-12 {
		t.Fatalf("%d shares summing to %v, want %d summing to 1", len(shares), sum, len(layers))
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(field, p)
}

func TestParseProfile(t *testing.T) {
	var prof pb
	prof = prof.bytes(1, pb(nil).varint(1, 1).varint(2, 2)) // sample_type, skipped
	// Packed location IDs (leaf first) and values.
	prof = prof.bytes(2, pb(nil).packed(1, 1, 2, 3).packed(2, 5, 5000))
	// Unpacked location IDs and values.
	prof = prof.bytes(2, pb(nil).varint(1, 3).varint(2, 2).varint(2, 2000))
	// Location 1 has a call inlined into location 1's outer frame: the
	// first line is innermost.
	prof = prof.bytes(4, pb(nil).varint(1, 1).varint(3, 0x4000).
		bytes(4, pb(nil).varint(1, 10).varint(2, 7)).
		bytes(4, pb(nil).varint(1, 11).varint(2, 8)))
	prof = prof.bytes(4, pb(nil).varint(1, 2).bytes(4, pb(nil).varint(1, 12)))
	prof = prof.bytes(4, pb(nil).varint(1, 3).bytes(4, pb(nil).varint(1, 13)))
	for id, name := range map[uint64]uint64{10: 1, 11: 2, 12: 3, 13: 4} {
		prof = prof.bytes(5, pb(nil).varint(1, id).varint(2, name).varint(4, 5))
	}
	for _, s := range []string{"", "runtime.memmove", "mnp/internal/eeprom.(*Store).Write", "mnp/internal/core.(*MNP).OnPacket", "runtime.goexit", "eeprom.go"} {
		prof = prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	stacks, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{[]string{"runtime.memmove", "mnp/internal/eeprom.(*Store).Write", "mnp/internal/core.(*MNP).OnPacket", "runtime.goexit"}, 5},
		{[]string{"runtime.goexit"}, 2},
	}
	if len(stacks) != len(want) {
		t.Fatalf("got %d stacks, want %d", len(stacks), len(want))
	}
	for i := range want {
		if !slices.Equal(stacks[i].frames, want[i].frames) || stacks[i].count != want[i].count {
			t.Errorf("stack %d = %+v, want %+v", i, stacks[i], want[i])
		}
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parsed garbage without error")
	}
}

// TestRealProfile folds a CPU profile the runtime wrote.
func TestRealProfile(t *testing.T) {
	s := small(experiment.ProtocolMNP, 4)
	s.Rows, s.Cols, s.ImagePackets = 10, 10, 128
	p := &profiler{}
	if _, err := runTraced(s, p); err != nil {
		t.Fatal(err)
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
	shares, total := fold(p.stacks)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if total == 0 || math.Abs(sum-1) > 1e-9 || shares["sim"]+shares["radio"] == 0 {
		t.Fatalf("%d samples, shares %v summing to %v", total, shares, sum)
	}
}

func TestReportCountsFailedNodes(t *testing.T) {
	r := report{Correct: true}
	r.count(simStats{attempted: 25})
	r.count(simStats{attempted: 25, failedNodes: 2})
	if r.Correct || r.Attempted != 50 || r.Failed != 2 || len(r.notes) != 1 {
		t.Fatalf("report %+v after one clean and one failing run", r)
	}
}

// TestMetricNames checks every emitted metric's name and unit, and that
// the two modes emit exactly the metrics BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, err := measureEndToEnd(small(experiment.ProtocolMNP, 1), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := measureLayers(small(experiment.ProtocolMNP, 1), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for mode, c := range map[string]struct {
		r    report
		spec []struct{ Name, Unit string }
	}{"end_to_end": {e2e, spec.EndToEnd}, "per_layer": {layer, spec.PerLayer}} {
		if len(c.r.Metrics) != len(c.r.names) {
			t.Errorf("%s: %d metrics under %d names: a name repeats", mode, len(c.r.Metrics), len(c.r.names))
		}
		for name, m := range c.r.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q [%q]", mode, name, m.Unit)
			}
		}
		if len(c.spec) != len(c.r.Metrics) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", mode, len(c.spec), len(c.r.Metrics))
		}
		for _, d := range c.spec {
			if m, ok := c.r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: declared %s [%s], emitted %+v (present %v)", mode, d.Name, d.Unit, m, ok)
			}
		}
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
}

func TestWorkloadSetups(t *testing.T) {
	for _, w := range workloads {
		s := w.setup(77)
		if s.Seed != 77 || s.Name != w.name {
			t.Errorf("%s: setup seed %d name %q", w.name, s.Seed, s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "f8-mnp", "--trace", "2"},
		{"--workload", "f8-mnp", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}
