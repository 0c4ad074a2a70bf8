package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// profileHz is the CPU sampling rate of the traced run. The default
// 100 Hz leaves a two-second run with ~200 samples, too few for a
// layer's share to repeat between runs.
const profileHz = 1000

// packageLayers are the mnp/internal packages reported as their own
// layer. Samples in any other mnp/internal package count as "other",
// samples in the benchmark's own hooks as "trace", and samples with
// neither as "runtime" (GC workers, the scheduler).
var (
	packageLayers = []string{"sim", "radio", "node", "core", "deluge", "eeprom", "metrics", "engine", "topology", "invariant"}
	layers        = append(slices.Clip(packageLayers), "other", "bench", "runtime")
)

// stack is one profile sample: function names innermost first, and
// the number of times it was sampled.
type stack struct {
	frames []string
	count  int64
}

// profiler gathers CPU-profile stacks over the traced reps' runs. A
// nil profiler does nothing.
type profiler struct {
	buf    bytes.Buffer
	stacks []stack
	err    error
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	p.buf.Reset()
	// StartCPUProfile keeps a rate set beforehand (and says so on
	// standard error).
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	st, err := parseProfile(p.buf.Bytes())
	if err != nil && p.err == nil {
		p.err = err
	}
	p.stacks = append(p.stacks, st...)
}

// layerOf names the layer a function belongs to, or "" for a frame
// outside the program and the benchmark.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "mnp/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if slices.Contains(packageLayers, pkg) {
			return pkg
		}
		return "other"
	}
	// The benchmark is package main in a binary and mnp/perfbench
	// in its test.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "mnp/perfbench.") {
		return "bench"
	}
	return ""
}

// attribute assigns a sample to the layer of its innermost program or
// benchmark frame, so runtime and standard-library code (mallocgc,
// math.Pow) counts toward the layer that called it.
func attribute(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "runtime"
}

// fold returns each layer's share of the samples (every layer present,
// shares summing to 1) and the sample total.
func fold(stacks []stack) (map[string]float64, int64) {
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total int64
	for _, s := range stacks {
		shares[attribute(s.frames)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares, total
}

// parseProfile decodes a gzipped pprof protobuf into stacks. It reads
// only what fold needs: each sample's location IDs and first value,
// each location's (possibly inlined) function IDs, function names, and
// the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]int64{}
	var strs []string
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			var values []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&values, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(msg) < size {
				return fmt.Errorf("truncated fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder
// writes either one value per field or packed into one byte run.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
