package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// benchmarkFile is the subset of ../BENCHMARK.json the tests compare.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// printedMetrics runs printResult and returns the metrics of its JSON line.
func printedMetrics(t *testing.T, m map[string]float64, specs []metricSpec) map[string]metricValue {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, true, 1, 0, m, specs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return r.Metrics
}

func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	res := &loopResult{wall: time.Second, ops: []opResult{{latency: time.Millisecond, trials: 1}}}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = 1 / float64(len(cpuLayers))
	}
	for _, tc := range []struct {
		name    string
		printed map[string]metricValue
		want    []struct{ Name, Unit, Better string }
		specs   []metricSpec
	}{
		{"end_to_end", printedMetrics(t, endToEndMetrics(1, res, 1), endToEnd), b.EndToEnd, endToEnd},
		{"per_layer", printedMetrics(t, perLayerMetrics(res, newTracer(), shares, memDelta{}, 0), perLayer), b.PerLayer, perLayer},
	} {
		if len(tc.printed) != len(tc.want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", tc.name, len(tc.printed), len(tc.want))
		}
		for i, w := range tc.want {
			got, ok := tc.printed[w.Name]
			if !ok {
				t.Errorf("%s: %s not printed", tc.name, w.Name)
				continue
			}
			if got.Unit != w.Unit {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", tc.name, w.Name, got.Unit, w.Unit)
			}
			if i < len(tc.specs) && (tc.specs[i].name != w.Name || tc.specs[i].better != w.Better) {
				t.Errorf("%s: entry %d is %+v here, %+v in BENCHMARK.json", tc.name, i, tc.specs[i], w)
			}
		}
	}
}

// TestMetricsCatalogue checks that metrics.json describes exactly the
// metrics of BENCHMARK.json, names a layer for each and, for each per-layer
// metric, what it should move.
func TestMetricsCatalogue(t *testing.T) {
	b := readBenchmarkFile(t)
	data, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Metrics []struct {
			Name, Layer string
			Moves       []struct{ Metric, Workload string }
		}
	}
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	e2e := map[string]bool{}
	for _, m := range b.EndToEnd {
		want[m.Name], e2e[m.Name] = true, true
	}
	for _, m := range b.PerLayer {
		want[m.Name] = true
	}
	seen := map[string]bool{}
	for _, m := range cat.Metrics {
		seen[m.Name] = true
		if !want[m.Name] {
			t.Errorf("metrics.json: %s is not in BENCHMARK.json", m.Name)
		}
		if m.Layer == "" {
			t.Errorf("metrics.json: %s has no layer", m.Name)
		}
		for _, mv := range m.Moves {
			if !e2e[mv.Metric] {
				t.Errorf("metrics.json: %s moves %q, not an end-to-end metric", m.Name, mv.Metric)
			}
			if _, err := newWorkload(mv.Workload, 1); err != nil {
				t.Errorf("metrics.json: %s: %v", m.Name, err)
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("metrics.json does not describe %s", name)
		}
	}
}

// TestCellTrialsMatchConformance checks that computing a cell trial by
// trial, as the traced pass and the digest regeneration do, gives the
// report core.ConformanceE gives, on a short, shallow-buffer path (at
// 5 BDP, flows this short leave a degenerate envelope).
func TestCellTrialsMatchConformance(t *testing.T) {
	c := core.SweepCell{Stack: "mvfst", CCA: stacks.CUBIC, Net: gridNet}
	c.Net.Duration, c.Net.Trials, c.Net.BufferBDP = 5*sim.Second, 2, 1
	fl, err := core.SpecE(c.Stack, c.CCA)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ConformanceE(fl, c.Net)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	run, err := runCellTrials(context.Background(), tr, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	if cellDigest(run.rep) != cellDigest(cellReport(want)) {
		t.Errorf("trial by trial %+v, core.ConformanceE %+v", run.rep, cellReport(want))
	}
	if run.work.Events == 0 || run.points == 0 {
		t.Errorf("no work counted: %+v, %d points", run.work, run.points)
	}
	for _, name := range []string{"core.test_trials", "core.reference_trials", "core.RunTrialE", "pe.EvaluateE"} {
		if tr.total(name) <= 0 {
			t.Errorf("no %s span", name)
		}
	}
}

func TestDigestMismatchIsAFailure(t *testing.T) {
	tr := &core.TrialResult{MeanMbps: [2]float64{9.5, 10.25}, Losses: [2]int64{100, 80},
		Spurious: [2]int64{3, 0}, Drops: 170, Events: 55000}
	exp := &expected{Workload: "lossy_pairs", Ops: []expectedOp{{Key: "quiche/t3", Digest: trialDigest(tr)}}}
	exp.index = map[string]int{"quiche/t3": 0}
	if err := exp.check("quiche/t3", trialDigest(tr)); err != nil {
		t.Fatalf("unperturbed result: %v", err)
	}
	perturbed := *tr
	perturbed.MeanMbps[1] = math.Nextafter(perturbed.MeanMbps[1], 11)
	err := exp.check("quiche/t3", trialDigest(&perturbed))
	if err == nil || !strings.Contains(err.Error(), "quiche/t3") {
		t.Fatalf("perturbed throughput: got %v, want a mismatch naming quiche/t3", err)
	}
	if err := exp.check("quiche/t4", trialDigest(tr)); err == nil {
		t.Fatal("a trial without a committed digest passed")
	}

	var tl tally
	tl.add(opResult{key: "a"}, opResult{key: "b", err: exp.check("quiche/t3", trialDigest(&perturbed))})
	tl.add(opResult{key: "c", err: os.ErrNotExist})
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("tally: %d of %d failed, want 2 of 3", tl.failed, tl.attempted)
	}
	if tl.first == nil || !strings.Contains(tl.first.Error(), "quiche/t3") {
		t.Errorf("first failure %v, want the quiche/t3 mismatch", tl.first)
	}

	cell := core.CellReport{Conformance: 0.4, ConformanceOld: 0.8, ConformanceT: 0.6, DeltaThroughputMbps: -1.5}
	if cellDigest(cell) == cellDigest(core.CellReport{Conformance: 0.4, ConformanceOld: 0.8, ConformanceT: 0.6, DeltaThroughputMbps: -1.25}) {
		t.Error("cell digest ignores Δtput")
	}
	if err := checkCell(cell); err != nil {
		t.Errorf("valid cell: %v", err)
	}
	for _, bad := range []core.CellReport{{Conformance: 1.2, ConformanceT: 1.2}, {Conformance: 0.5, ConformanceT: 0.4}, {Conformance: -0.1}} {
		if checkCell(bad) == nil {
			t.Errorf("checkCell(%+v) passed", bad)
		}
	}
	mf := &traffic.Result{Flows: 10, Stats: traffic.EngineStats{StaleDeliveries: 1}}
	if checkManyFlow(mf) == nil {
		t.Error("a stale delivery passed")
	}
	before := manyFlowDigest(mf)
	mf.Cohorts = append(mf.Cohorts, traffic.CohortResult{Name: "web", Lost: 1})
	if manyFlowDigest(mf) == before {
		t.Error("many-flow digest ignores cohorts")
	}
}

func TestAttributeMapsProgramFrames(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/transport.(*Sender).HandlePacket"}, "transport"},
		{[]string{"runtime.mapiternext", "repro/internal/transport.(*Sender).detectLosses", "repro/internal/sim.(*Engine).Step"}, "transport"},
		{[]string{"repro/internal/dist/frame.Read", "main.main"}, "dist"},
		{[]string{"repro/internal/cc.(*Cubic).OnAck", "repro/internal/transport.(*Sender).onAck"}, "cc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/netem.(*Link).send"}, "gc"},
		{[]string{"runtime.futex", "main.closedLoop"}, "other"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// TestCPUSharesFromRealProfile profiles a loop inside a program package
// and checks that the decoded profile charges it to that package.
func TestCPUSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	rng := stats.NewRNG(1)
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		geom.ConvexHull(pts)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range cpuLayers {
		s, ok := shares[l]
		if !ok {
			t.Errorf("no share for %s", l)
		}
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %g", total)
	}
	// Under the race detector many samples land in its runtime, which has
	// no Go frames, so require only that geom leads the program packages.
	for l, v := range shares {
		if l != "geom" && l != "other" && l != "gc" && v >= shares["geom"] {
			t.Errorf("%s share %.2f >= geom share %.2f in a hull-building loop", l, v, shares["geom"])
		}
	}
	if shares["geom"] == 0 {
		t.Errorf("no geom samples in a hull-building loop; shares %v", shares)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(15, 0.9); got >= minBeyond {
		t.Errorf("beyond(15, 0.9) = %d", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g", got)
	}
}

// TestLimitFits checks that by deadline an operation starts only when it
// is expected to end in time, and that by count fits is more.
func TestLimitFits(t *testing.T) {
	l := limit{deadline: time.Now().Add(time.Hour)}
	if !l.fits(5, 0) || !l.fits(5, time.Minute) {
		t.Error("a short operation does not fit an hour")
	}
	if l.fits(0, 2*time.Hour) {
		t.Error("a two-hour operation fits an hour")
	}
	if n := (limit{ops: 3}); !n.fits(2, 2*time.Hour) || n.fits(3, 0) {
		t.Error("by count, fits differs from more")
	}
}

// TestClosedLoopConcurrent drives the loop, the tracer and the RSS sampler
// from several goroutines at once; run it with -race.
func TestClosedLoopConcurrent(t *testing.T) {
	tr := newTracer()
	s := startRSSSampler()
	ops, wall := closedLoop(4, limit{ops: 200}, func(i int) opResult {
		ctx, end := tr.begin(context.Background(), "op", i)
		_, endChild := tr.begin(ctx, "child", i)
		endChild()
		end()
		return opResult{key: fmt.Sprint(i), latency: time.Microsecond}
	})
	if _, err := s.finish(); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 200 || wall <= 0 {
		t.Fatalf("%d ops in %v", len(ops), wall)
	}
	for i, r := range ops {
		if r.key != fmt.Sprint(i) {
			t.Fatalf("op %d holds %q", i, r.key)
		}
	}
	if len(tr.spans) != 400 {
		t.Fatalf("%d spans, want 400", len(tr.spans))
	}
	for _, sp := range tr.spans {
		if sp.End < sp.Start {
			t.Fatalf("span %+v ends before it starts", sp)
		}
		if sp.Name == "child" && tr.spans[sp.Parent-1].Op != sp.Op {
			t.Fatalf("child span %+v under %+v", sp, tr.spans[sp.Parent-1])
		}
	}
}
