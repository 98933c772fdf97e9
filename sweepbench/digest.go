package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/traffic"
)

// expected is a workload's committed output: one entry per operation in
// the workload's input pool, in pool order. The counters are only set for
// conformance cells, whose sweep path does not return them (see cellWork).
type expected struct {
	Workload string       `json:"workload"`
	Ops      []expectedOp `json:"ops"`
	index    map[string]int
}

type expectedOp struct {
	Key    string `json:"key"`
	Digest string `json:"digest"`
	cellWork
}

// cellWork is the simulation work behind one conformance cell, summed over
// its test and reference trials and both flows of each.
type cellWork struct {
	Events   uint64 `json:"events,omitempty"`
	Losses   int64  `json:"losses,omitempty"`
	Spurious int64  `json:"spurious,omitempty"`
	Drops    uint64 `json:"drops,omitempty"`
}

func expectedPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func loadExpected(dir, workload string) (*expected, error) {
	data, err := os.ReadFile(expectedPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected digests %s: %w", workload, err)
	}
	if e.Workload != workload {
		return nil, fmt.Errorf("expected digests: file for %q holds %q", workload, e.Workload)
	}
	e.index = make(map[string]int, len(e.Ops))
	for i, op := range e.Ops {
		e.index[op.Key] = i
	}
	return &e, nil
}

// write stores the digests one operation per line, so a regeneration's
// diff shows exactly which operations changed.
func (e *expected) write(dir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "{\"workload\": %q, \"ops\": [\n", e.Workload)
	for i, op := range e.Ops {
		line, err := json.Marshal(op)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(e.Ops)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(expectedPath(dir, e.Workload), []byte(b.String()), 0o644)
}

// lookup returns the committed entry for key.
func (e *expected) lookup(key string) (expectedOp, bool) {
	i, ok := e.index[key]
	if !ok {
		return expectedOp{}, false
	}
	return e.Ops[i], true
}

// check compares one operation's digest with the committed one. The error
// names the operation, so the first mismatch in run order identifies the
// first cell or trial that differs.
func (e *expected) check(key, digest string) error {
	want, ok := e.lookup(key)
	switch {
	case !ok:
		return fmt.Errorf("%s: no committed digest", key)
	case want.Digest != digest:
		return fmt.Errorf("%s: digest %s, committed %s", key, digest, want.Digest)
	}
	return nil
}

// digest hashes fields in order; floats are written in their shortest
// exact form, so a digest changes exactly when a value does.
func digest(fields ...any) string {
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte('|')
		}
		switch v := f.(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		default:
			fmt.Fprint(&b, v)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// cellDigest covers a conformance cell's journaled metrics.
func cellDigest(r core.CellReport) string {
	return digest(r.Conformance, r.ConformanceOld, r.ConformanceT, r.DeltaThroughputMbps)
}

// checkCell enforces the conformance invariants: both metrics are shares,
// and translation search never lowers conformance.
func checkCell(r core.CellReport) error {
	switch {
	case r.Conformance < 0 || r.Conformance > 1:
		return fmt.Errorf("conf %g outside [0, 1]", r.Conformance)
	case r.ConformanceT < 0 || r.ConformanceT > 1:
		return fmt.Errorf("conf_t %g outside [0, 1]", r.ConformanceT)
	case r.ConformanceT < r.Conformance:
		return fmt.Errorf("conf_t %g < conf %g", r.ConformanceT, r.Conformance)
	}
	return nil
}

// trialDigest covers a two-flow trial's per-flow outcome.
func trialDigest(r *core.TrialResult) string {
	return digest(r.MeanMbps[0], r.MeanMbps[1], r.Losses[0], r.Losses[1],
		r.Spurious[0], r.Spurious[1], r.Drops, r.Events)
}

// manyFlowDigest covers a many-flow trial's counters, population-wide and
// per cohort.
func manyFlowDigest(r *traffic.Result) string {
	fields := []any{r.Flows, r.Completed, r.Rejected, r.PeakActive, r.Events, r.Drops,
		r.QueueHighwaterB, r.AggMbps, r.Stats.FlowsStarted, r.Stats.FlowsReleased,
		r.Stats.InjectedData, r.Stats.InjectedAcks}
	for _, c := range r.Cohorts {
		fields = append(fields, c.Name, c.Started, c.Completed, c.BytesAcked, c.MeanMbps,
			c.MeanFCTms, c.Lost, c.Spurious, len(c.Points))
	}
	return digest(fields...)
}

// checkManyFlow enforces the engine's lifecycle invariant.
func checkManyFlow(r *traffic.Result) error {
	if r.Stats.StaleDeliveries != 0 {
		return fmt.Errorf("%d stale deliveries", r.Stats.StaleDeliveries)
	}
	return nil
}
