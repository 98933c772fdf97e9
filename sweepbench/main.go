// Command sweepbench is the end-to-end benchmark of the conformance
// pipeline. It drives the program's packages in process from one
// load-generating process: each workload is a closed loop of at most
// nproc (capped at 2) workers, each taking its next cell or trial only
// when its previous one finishes. Every output is checked against a
// committed digest. The last line of standard output is a JSON summary;
// the lines before it print each metric with its unit, and the host.
//
// Run it through run.sh, which builds it; see README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, and set-up time is measured from here.
var processStart = time.Now()

// A run sets up at least minSetups times, and again while its set-ups
// have taken less than setupBudget in all, up to maxSetups; setup_s is
// their median. Short set-ups are repeated more, so their median holds
// still.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// accountingBound is the largest share of the runner's busy time the
// traced conformance stages may leave unexplained.
const accountingBound = 0.05

type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"trials_per_s", "1/s", "higher"},
	{"sim_s_per_s", "s/s", "higher"},
	{"events_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, in report order.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"runner.attempts", "count", "lower"},
		{"runner.retries", "count", "lower"},
		{"runner.cell_busy_s", "s", "lower"},
		{"runner.overhead_s", "s", "lower"},
		{"runner.journal_bytes", "bytes", "lower"},
		{"core.test_trials_s", "s", "lower"},
		{"core.ref_trials_s", "s", "lower"},
		{"core.ref_trials_run", "count", "lower"},
		{"core.ref_trials_distinct", "count", "lower"},
		{"pe.evaluate_s", "s", "lower"},
		{"pe.points", "count", "lower"},
		{"transport.losses", "count", "lower"},
		{"transport.spurious", "count", "lower"},
		{"transport.spurious_ratio", "share", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"netem.drops", "count", "lower"},
		{"traffic.flows", "count", "higher"},
		{"traffic.completed", "count", "higher"},
		{"traffic.rejected", "count", "lower"},
		{"traffic.peak_active", "count", "higher"},
		{"mem.allocs_per_event", "count", "lower"},
		{"mem.bytes_per_event", "bytes", "lower"},
		{"mem.gc_cycles", "count", "lower"},
		{"bench.trace_overhead", "share", "lower"},
	}
	for _, l := range cpuLayers {
		m = append(m, metricSpec{"cpu." + l, "share", "lower"})
	}
	return m
}()

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	expected string
	regen    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: conformance_grid, lossy_pairs or many_flow")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for journals, spans and profiles")
	flag.StringVar(&o.expected, "expected", "", "directory of committed digests")
	flag.BoolVar(&o.regen, "regen", false, "recompute the committed digests of -workload (all when empty)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		os.Exit(1)
	}
}

func workers() int { return min(2, runtime.NumCPU()) }

func run(o options) error {
	switch {
	case o.expected == "" || o.out == "":
		return errors.New("-expected and -out are required")
	case o.regen:
		return regenerate(o)
	case o.seconds < 1:
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	w, err := newWorkload(o.workload, workers())
	if err != nil {
		return err
	}
	exp, err := loadExpected(o.expected, o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var t tally
	var setups []float64
	for spent := 0.0; len(setups) < minSetups ||
		len(setups) < maxSetups && spent < setupBudget.Seconds(); {
		t0 := time.Now()
		if len(setups) == 0 {
			t0 = processStart
		}
		warm, err := w.setup(o.seed, exp, tmp)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		t.add(warm)
	}
	sort.Float64s(setups)

	calBefore := calibrationMs()
	sampler := startRSSSampler()
	res, err := w.run(nil, limit{deadline: time.Now().Add(time.Duration(o.seconds) * time.Second)})
	rss, serr := sampler.finish()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	hwm, err := procStatusMiB("VmHWM")
	if err != nil {
		return err
	}
	t.add(res.ops...)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d workers=%d set-ups=%d\n",
		o.workload, o.seed, o.seconds, o.trace, workers(), len(setups))
	fmt.Printf("memory: process highwater VmHWM %.1f MiB; peak_rss_mb is the median per-second peak of VmRSS\n", hwm)
	var metrics map[string]float64
	var specs []metricSpec
	var accountErr error
	if o.trace == 0 {
		metrics, specs = endToEndMetrics(percentile(setups, 0.5), res, rss), endToEnd
		printLatency(res)
	} else {
		tres, lm, err := traced(o, w, res)
		if err != nil {
			return err
		}
		t.add(tres.ops...)
		metrics, specs = lm, perLayer
		if accountErr = checkAccounting(metrics); accountErr != nil {
			fmt.Println("FAILED:", accountErr)
		}
	}
	if t.first != nil {
		fmt.Println("FAILED: first failing operation:", t.first)
	}
	fmt.Printf("failed_share %g (%d of %d operations)\n", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	h := fingerprint()
	fmt.Println(h)
	fmt.Printf("calibration_ms before the timed loop %.3f, after %.3f\n", calBefore, h.CalibrationMs)
	return printResult(os.Stdout, t.failed == 0 && accountErr == nil, t.attempted, t.failed, metrics, specs)
}

// tally counts attempted and failed operations and keeps the first
// failure in run order.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) add(ops ...opResult) {
	for _, r := range ops {
		t.attempted++
		if r.err != nil {
			t.failed++
			if t.first == nil {
				t.first = r.err
			}
		}
	}
}

// traced replays the timed pass's operations with spans, a CPU profile and
// allocation counters, and derives the per-layer metrics.
func traced(o options, w workload, untraced *loopResult) (*loopResult, map[string]float64, error) {
	tr := newTracer()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	res, err := w.run(tr, limit{ops: len(untraced.ops)})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, fmt.Errorf("write profile: %w", err)
	}
	fmt.Printf("spans: %s.spans.jsonl profile: %s.cpu.pprof\n", base, base)
	overhead := res.wall.Seconds()/untraced.wall.Seconds() - 1
	fmt.Printf("tracing overhead: traced pass %.3f s, untraced pass %.3f s over the same %d operations (%+.1f%%)\n",
		res.wall.Seconds(), untraced.wall.Seconds(), len(res.ops), 100*overhead)
	mem := memDelta{allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs: m1.NumGC - m0.NumGC}
	return res, perLayerMetrics(res, tr, shares, mem, overhead), nil
}

type memDelta struct {
	allocs, bytes uint64
	gcs           uint32
}

// totals sums a loop's operations.
type totals struct {
	trials, events, flows, completed, rejected int64
	simSec                                     float64
	losses, spurious, drops                    int64
	peakActive                                 int
	latency                                    time.Duration
}

func sum(ops []opResult) totals {
	var t totals
	for _, r := range ops {
		t.trials += int64(r.trials)
		t.simSec += r.simSec
		t.events += int64(r.work.Events)
		t.losses += r.work.Losses
		t.spurious += r.work.Spurious
		t.drops += int64(r.work.Drops)
		t.flows += r.flows
		t.completed += r.completed
		t.rejected += r.rejected
		t.peakActive = max(t.peakActive, r.peakActive)
		t.latency += r.latency
	}
	return t
}

func latenciesMs(ops []opResult) []float64 {
	ms := make([]float64, len(ops))
	for i, r := range ops {
		ms[i] = float64(r.latency.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

func endToEndMetrics(setup float64, res *loopResult, rss float64) map[string]float64 {
	t := sum(res.ops)
	wall := res.wall.Seconds()
	return map[string]float64{
		"setup_s":      setup,
		"cells_per_s":  float64(len(res.ops)) / wall,
		"trials_per_s": float64(t.trials) / wall,
		"sim_s_per_s":  t.simSec / wall,
		"events_per_s": float64(t.events) / wall,
		"op_p50_ms":    percentile(latenciesMs(res.ops), 0.5),
		"peak_rss_mb":  rss,
	}
}

// printLatency reports the operation latency's median with its sample
// count, and the p90 when enough samples lie beyond it.
func printLatency(res *loopResult) {
	ms := latenciesMs(res.ops)
	fmt.Printf("op_p50_ms %.3f ms (n=%d, %d beyond)\n", percentile(ms, 0.5), len(ms), beyond(len(ms), 0.5))
	if b := beyond(len(ms), 0.9); b >= minBeyond {
		fmt.Printf("op_p90_ms %.3f ms (n=%d, %d beyond)\n", percentile(ms, 0.9), len(ms), b)
	} else {
		fmt.Printf("op_p90_ms not reported: %d of %d samples beyond it, %d needed\n", b, len(ms), minBeyond)
	}
}

func perLayerMetrics(res *loopResult, tr *tracer, shares map[string]float64, mem memDelta, overhead float64) map[string]float64 {
	t := sum(res.ops)
	busy := tr.total("runner.ExecuteTrial")
	overheadS := 0.0
	if busy > 0 {
		overheadS = float64(workers())*res.wall.Seconds() - busy
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ev := float64(t.events)
	m := map[string]float64{
		"runner.attempts":          float64(res.attempts),
		"runner.retries":           float64(res.retries),
		"runner.cell_busy_s":       busy,
		"runner.overhead_s":        overheadS,
		"runner.journal_bytes":     float64(res.journalBytes),
		"core.test_trials_s":       tr.total("core.test_trials"),
		"core.ref_trials_s":        tr.total("core.reference_trials"),
		"core.ref_trials_run":      float64(res.refTrialsRun),
		"core.ref_trials_distinct": float64(res.refTrialsDistinct),
		"pe.evaluate_s":            tr.total("pe.EvaluateE"),
		"pe.points":                float64(res.pePoints),
		"transport.losses":         float64(t.losses),
		"transport.spurious":       float64(t.spurious),
		"transport.spurious_ratio": ratio(float64(t.spurious), float64(t.losses)),
		"sim.events":               ev,
		"sim.ns_per_event":         ratio(float64(t.latency.Nanoseconds()), ev),
		"netem.drops":              float64(t.drops),
		"traffic.flows":            float64(t.flows),
		"traffic.completed":        float64(t.completed),
		"traffic.rejected":         float64(t.rejected),
		"traffic.peak_active":      float64(t.peakActive),
		"mem.allocs_per_event":     ratio(float64(mem.allocs), ev),
		"mem.bytes_per_event":      ratio(float64(mem.bytes), ev),
		"mem.gc_cycles":            float64(mem.gcs),
		"bench.trace_overhead":     overhead,
	}
	for l, s := range shares {
		m["cpu."+l] = s
	}
	return m
}

// checkAccounting requires the three conformance stages to explain the
// runner's busy time in a traced conformance_grid run.
func checkAccounting(m map[string]float64) error {
	busy := m["runner.cell_busy_s"]
	if busy == 0 {
		return nil
	}
	stages := m["core.test_trials_s"] + m["core.ref_trials_s"] + m["pe.evaluate_s"]
	gap := (busy - stages) / busy
	fmt.Printf("span accounting: stages %.3f s of runner busy %.3f s (%.2f%% unexplained, bound %.0f%%)\n",
		stages, busy, 100*gap, 100*accountingBound)
	if gap > accountingBound || gap < 0 {
		return fmt.Errorf("conformance stages explain %.3f s of %.3f s runner busy time", stages, busy)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints each metric on its own line, then the JSON summary
// as the last line.
func printResult(w io.Writer, correct bool, attempted, failed int, m map[string]float64, specs []metricSpec) error {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			return fmt.Errorf("metric %s not computed", s.name)
		}
		fmt.Fprintf(w, "%-26s %.6g %s\n", s.name, v, s.unit)
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// regenerate recomputes the committed digests of one workload, or of all.
func regenerate(o options) error {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	for _, name := range names {
		w, err := newWorkload(name, workers())
		if err != nil {
			return err
		}
		t0 := time.Now()
		ops, err := w.regen()
		if err != nil {
			return fmt.Errorf("regenerate %s: %w", name, err)
		}
		if err := (&expected{Workload: name, Ops: ops}).write(o.expected); err != nil {
			return fmt.Errorf("regenerate %s: %w", name, err)
		}
		fmt.Printf("%s: %d digests in %.1f s\n", name, len(ops), time.Since(t0).Seconds())
	}
	return nil
}
