package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a public function of the
// program. Parent is the enclosing span's ID (0 for none); Op numbers the
// operation (cell or trial) the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

// begin opens a span under the span carried by ctx and returns a context
// carrying the new one, plus the function that closes it.
func (t *tracer) begin(ctx context.Context, name string, op int) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(int)
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// total sums the durations of the spans with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuLayers are the packages whose CPU self-time share the traced run
// reports. Samples in other packages of the program, the runtime outside
// garbage collection, and the benchmark itself fall into "other".
var cpuLayers = []string{"sim", "netem", "transport", "cc", "faults", "traffic",
	"metrics", "core", "runner", "pe", "cluster", "geom", "stats", "gc", "other"}

// gcFrames mark a sample as garbage-collection work wherever they appear
// in its stack: background marking and sweeping, and the mark assist an
// allocating goroutine is drafted into.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

const programPrefix = "repro/internal/"

// attribute maps one sampled stack, leaf first, to a layer: "gc" for
// collector work, else the package of the innermost frame inside the
// program (repro/internal/<pkg>), so runtime helpers such as map iteration
// or allocation are charged to the program package that called them.
// Anything else is "other".
func attribute(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, programPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	return "other"
}

// cpuShares attributes every sample of a gzipped pprof CPU profile and
// returns each layer's share of the sampled CPU time. Every name in
// cpuLayers is present; program packages not listed there count as
// "other".
func cpuShares(profile []byte) (map[string]float64, error) {
	stacks, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(cpuLayers))
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
		out[l] = 0
	}
	var total int64
	for _, s := range stacks {
		l := attribute(s.frames)
		if !known[l] {
			l = "other"
		}
		out[l] += float64(s.weight)
		total += s.weight
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for l := range out {
		out[l] /= float64(total)
	}
	return out, nil
}

// sampledStack is one profile sample: its frames, leaf first, and its CPU
// time in nanoseconds.
type sampledStack struct {
	frames []string
	weight int64
}

// parseProfile decodes the parts of a gzipped profile.proto that
// attribution needs: samples, locations (with inlined lines) and function
// names. Field numbers follow github.com/google/pprof/proto/profile.proto.
func parseProfile(data []byte) ([]sampledStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					s.locs = append(s.locs, v)
				case num == 1 && wire == 2:
					return eachVarint(b, func(v uint64) { s.locs = append(s.locs, v) })
				case num == 2 && wire == 0:
					s.values = append(s.values, int64(v))
				case num == 2 && wire == 2:
					return eachVarint(b, func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]sampledStack, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		// A CPU profile's values are (sample count, CPU nanoseconds).
		w := int64(1)
		if len(s.values) > 0 {
			w = s.values[len(s.values)-1]
		}
		out = append(out, sampledStack{frames: frames, weight: w})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or its length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
