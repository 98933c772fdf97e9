package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/pe"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stacks"
	"repro/internal/stats"
)

// opResult is the outcome of one operation: a conformance cell, or one
// trial of the other workloads.
type opResult struct {
	key     string
	digest  string
	latency time.Duration
	trials  int
	simSec  float64
	work    cellWork
	// Many-flow population counters.
	flows, completed, rejected int64
	peakActive                 int
	// err is set when the operation failed: an error, exhausted retries,
	// a violated invariant or a digest that does not match.
	err error
}

// loopResult is one closed-loop pass over a workload's operations.
type loopResult struct {
	wall time.Duration
	ops  []opResult
	// Runner counters (conformance_grid only).
	attempts, retries int64
	journalBytes      int64
	// Conformance pipeline counters of the traced pass.
	refTrialsRun      int
	refTrialsDistinct int
	pePoints          int
}

// limit bounds a loop: by deadline when ops is 0, else by operation count
// (the traced pass replays exactly the operations the timed pass ran).
type limit struct {
	deadline time.Time
	ops      int
}

func (l limit) more(started int) bool {
	if l.ops > 0 {
		return started < l.ops
	}
	return time.Now().Before(l.deadline)
}

// fits is more for an operation expected to take d: by deadline it may
// start only when it should end by the deadline.
func (l limit) fits(started int, d time.Duration) bool {
	if l.ops > 0 {
		return started < l.ops
	}
	return !time.Now().Add(d).After(l.deadline)
}

// workload is one benchmark input mix. setup generates the run's inputs
// from the seed and performs one discarded warm-up operation, whose output
// is checked like any other; run drives the closed loop, recording spans
// when tr is non-nil; regen computes the digests of every operation a seed
// can select.
type workload interface {
	setup(seed uint64, exp *expected, tmp string) (opResult, error)
	run(tr *tracer, lim limit) (*loopResult, error)
	regen() ([]expectedOp, error)
}

func newWorkload(name string, workers int) (workload, error) {
	switch name {
	case "conformance_grid":
		return &conformanceGrid{workers: workers}, nil
	case "lossy_pairs":
		return &lossyPairs{workers: workers}, nil
	case "many_flow":
		return &manyFlow{workers: workers}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want conformance_grid, lossy_pairs or many_flow)", name)
}

var workloadNames = []string{"conformance_grid", "lossy_pairs", "many_flow"}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(rng *stats.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// closedLoop runs do on workers goroutines; each takes the next operation
// index only when its previous operation has finished, until lim says
// stop. It returns the results in operation order and the wall time until
// the last one finished.
func closedLoop(workers int, lim limit, do func(i int) opResult) ([]opResult, time.Duration) {
	var (
		mu      sync.Mutex
		started int
		out     = map[int]opResult{}
		wg      sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !lim.more(started) {
			return 0, false
		}
		started++
		return started - 1, true
	}
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				r := do(i)
				mu.Lock()
				out[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	res := make([]opResult, len(out))
	for i, r := range out {
		res[i] = r
	}
	return res, wall
}

// --- lossy_pairs ---------------------------------------------------------

// lossyNet is the shallow-buffer path of lossy_pairs: 20 Mbps, 10 ms,
// 0.5 BDP, 10 s flows.
var lossyNet = core.Network{BandwidthMbps: 20, RTT: 10 * sim.Millisecond, BufferBDP: 0.5,
	Duration: 10 * sim.Second, Trials: 1, Seed: 1}

// lossyTrials is the trial-index pool per stack.
const lossyTrials = 40

// lossyImpairment is Gilbert–Elliott burst loss on the data path.
func lossyImpairment() core.Impairment {
	return core.Impairment{Loss: func() (faults.LossModel, error) {
		return faults.NewGilbertElliott(0.002, 0.3, 0, 0.5)
	}}
}

type pairOp struct {
	stack string
	trial int
}

func (p pairOp) key() string { return fmt.Sprintf("%s/t%d", p.stack, p.trial) }

// lossyPairs runs each QUIC stack's cubic against kernel cubic under burst
// loss, one independent trial per operation.
type lossyPairs struct {
	workers int
	order   []pairOp
	exp     *expected
}

func cubicStacks() []string {
	var out []string
	for _, im := range stacks.Implementations(stacks.CUBIC) {
		out = append(out, im.Stack)
	}
	return out
}

// setup orders the pool in rounds: each round is one trial index for every
// stack, so any run covers the stacks evenly; the seed shuffles the trial
// indices and the stacks within each round. The warm-up is the pool's
// first trial whatever the seed, so set-up always does the same work.
func (w *lossyPairs) setup(seed uint64, exp *expected, _ string) (opResult, error) {
	rng := stats.NewRNG(seed)
	names := cubicStacks()
	w.order = w.order[:0]
	for _, t := range permutation(rng, lossyTrials) {
		for _, s := range permutation(rng, len(names)) {
			w.order = append(w.order, pairOp{stack: names[s], trial: t})
		}
	}
	w.exp = exp
	return w.trial(nil, 0, pairOp{stack: names[0], trial: 0}), nil
}

func (w *lossyPairs) do(tr *tracer, i int) opResult {
	return w.trial(tr, i, w.order[i%len(w.order)])
}

// trial runs one pair trial as operation i.
func (w *lossyPairs) trial(tr *tracer, i int, op pairOp) opResult {
	r := opResult{key: op.key(), trials: 1, simSec: lossyNet.Duration.Seconds()}
	a, err := core.SpecE(op.stack, stacks.CUBIC)
	if err != nil {
		r.err = err
		return r
	}
	ref := core.Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	t0 := time.Now()
	_, end := tr.begin(context.Background(), "core.RunTrialImpaired", i)
	res, err := core.RunTrialImpaired(a, ref, lossyNet, op.trial, lossyImpairment())
	end()
	r.latency = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", r.key, err)
		return r
	}
	r.work = cellWork{Events: res.Events, Losses: res.Losses[0] + res.Losses[1],
		Spurious: res.Spurious[0] + res.Spurious[1], Drops: res.Drops}
	r.digest = trialDigest(res)
	if w.exp != nil {
		r.err = w.exp.check(r.key, r.digest)
	}
	return r
}

func (w *lossyPairs) run(tr *tracer, lim limit) (*loopResult, error) {
	ops, wall := closedLoop(w.workers, lim, func(i int) opResult { return w.do(tr, i) })
	return &loopResult{wall: wall, ops: ops}, nil
}

func (w *lossyPairs) regen() ([]expectedOp, error) {
	w.order, w.exp = nil, nil
	for _, s := range cubicStacks() {
		for t := 0; t < lossyTrials; t++ {
			w.order = append(w.order, pairOp{stack: s, trial: t})
		}
	}
	ops, _ := closedLoop(w.workers, limit{ops: len(w.order)}, func(i int) opResult { return w.do(nil, i) })
	return digestsOf(ops)
}

// digestsOf turns a regeneration pass into committed entries.
func digestsOf(ops []opResult) ([]expectedOp, error) {
	out := make([]expectedOp, len(ops))
	for i, r := range ops {
		if r.err != nil {
			return nil, r.err
		}
		out[i] = expectedOp{Key: r.key, Digest: r.digest}
	}
	return out, nil
}

// --- many_flow -----------------------------------------------------------

// manyNet is the many_flow path: 1 Gbps, 20 ms, 1 BDP, 2 s trials.
var manyNet = core.Network{BandwidthMbps: 1000, RTT: 20 * sim.Millisecond, BufferBDP: 1,
	Duration: 2 * sim.Second, Trials: 1, Seed: 1}

// manyTrials is the trial-index pool.
const manyTrials = 48

// manyFlow runs the default 1000-flow churning population, one trial per
// operation.
type manyFlow struct {
	workers int
	order   []int
	exp     *expected
}

// setup shuffles the trial pool by seed; the warm-up is trial 0 whatever
// the seed, so set-up always does the same work.
func (w *manyFlow) setup(seed uint64, exp *expected, _ string) (opResult, error) {
	w.order = permutation(stats.NewRNG(seed), manyTrials)
	w.exp = exp
	return w.trial(nil, 0, 0), nil
}

func (w *manyFlow) do(tr *tracer, i int) opResult {
	return w.trial(tr, i, w.order[i%len(w.order)])
}

// trial runs many-flow trial index trial as operation i.
func (w *manyFlow) trial(tr *tracer, i, trial int) opResult {
	r := opResult{key: fmt.Sprintf("t%d", trial), trials: 1, simSec: manyNet.Duration.Seconds()}
	spec := core.DefaultTrafficSpec()
	t0 := time.Now()
	_, end := tr.begin(context.Background(), "core.RunManyFlowTrial", i)
	res, err := core.RunManyFlowTrial(spec, manyNet, trial, core.Bounds{}, nil)
	end()
	r.latency = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", r.key, err)
		return r
	}
	r.work = cellWork{Events: res.Events, Drops: res.Drops}
	for _, c := range res.Cohorts {
		r.work.Losses += c.Lost
		r.work.Spurious += c.Spurious
	}
	r.flows, r.completed, r.rejected, r.peakActive = res.Flows, res.Completed, res.Rejected, res.PeakActive
	if err := checkManyFlow(res); err != nil {
		r.err = fmt.Errorf("%s: %w", r.key, err)
		return r
	}
	r.digest = manyFlowDigest(res)
	if w.exp != nil {
		r.err = w.exp.check(r.key, r.digest)
	}
	return r
}

func (w *manyFlow) run(tr *tracer, lim limit) (*loopResult, error) {
	ops, wall := closedLoop(w.workers, lim, func(i int) opResult { return w.do(tr, i) })
	return &loopResult{wall: wall, ops: ops}, nil
}

func (w *manyFlow) regen() ([]expectedOp, error) {
	w.order, w.exp = nil, nil
	for t := 0; t < manyTrials; t++ {
		w.order = append(w.order, t)
	}
	ops, _ := closedLoop(w.workers, limit{ops: manyTrials}, func(i int) opResult { return w.do(nil, i) })
	return digestsOf(ops)
}

// --- conformance_grid ----------------------------------------------------

// gridNet is the conformance_grid path: 20 Mbps, 10 ms, 5 BDP, 30 s flows,
// 3 trials, network seed 1. Every sweep pass measures the same cells under
// the same seed, whatever the benchmark seed: a cell's cost depends
// strongly on its network seed (quiche's loss storms make some of its
// trials ten times slower under some seeds than others), so a pass on
// another seed would be different work, and a faster program would change
// the mix a run measures instead of just running more of the same passes.
var gridNet = core.Network{BandwidthMbps: 20, RTT: 10 * sim.Millisecond, BufferBDP: 5,
	Duration: 30 * sim.Second, Trials: 3, Seed: 1}

func gridCells() []core.SweepCell {
	var cells []core.SweepCell
	for _, cca := range []stacks.CCA{stacks.CUBIC, stacks.BBR} {
		for _, im := range stacks.Implementations(cca) {
			cells = append(cells, core.SweepCell{Stack: im.Stack, CCA: cca, Net: gridNet})
		}
	}
	return cells
}

// conformanceGrid runs whole conformance sweeps through the supervised
// runner with a checkpoint journal.
type conformanceGrid struct {
	workers int
	exp     *expected
	dir     string
}

func (w *conformanceGrid) setup(_ uint64, exp *expected, tmp string) (opResult, error) {
	w.exp = exp
	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return opResult{}, fmt.Errorf("journal dir: %w", err)
	}
	w.dir = dir
	// Warm-up: the first cell of a pass, through the trial-level API, which
	// also yields the work counters the sweep path cannot; both are checked
	// against the committed entry.
	c := gridCells()[0]
	r := opResult{key: c.Key()}
	run, err := runCellTrials(context.Background(), nil, 0, c)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", r.key, err)
	} else {
		r.err = w.checkRun(c.Key(), run)
	}
	return r, nil
}

// cellRun is one cell computed trial by trial.
type cellRun struct {
	rep    core.CellReport
	work   cellWork
	points int
}

// runCellTrials computes one cell the way core.ConformanceE does: the test
// trials, the reference trials, then pe.EvaluateE. core.TestTrialsE and
// core.ReferenceTrialsE are loops over the same trial engine as
// core.RunTrialE; calling it per trial makes the trials' work counters
// visible. With a tracer, each stage and each trial gets a span.
func runCellTrials(ctx context.Context, tr *tracer, op int, c core.SweepCell) (cellRun, error) {
	var out cellRun
	fl, err := core.SpecE(c.Stack, c.CCA)
	if err != nil {
		return out, err
	}
	ref := core.Flow{Stack: stacks.Reference(), CCA: c.CCA}
	n := c.Net.WithDefaults()
	stage := func(name string, a core.Flow, offset int) ([][]geom.Point, error) {
		ctx, end := tr.begin(ctx, name, op)
		defer end()
		trials := make([][]geom.Point, n.Trials)
		for t := range trials {
			_, endTrial := tr.begin(ctx, "core.RunTrialE", op)
			res, err := core.RunTrialE(a, ref, n, t+offset)
			endTrial()
			if err != nil {
				return nil, fmt.Errorf("%s trial %d: %w", name, t, err)
			}
			out.work.Events += res.Events
			out.work.Losses += res.Losses[0] + res.Losses[1]
			out.work.Spurious += res.Spurious[0] + res.Spurious[1]
			out.work.Drops += res.Drops
			trials[t] = res.Points(0, n)
			out.points += len(trials[t])
		}
		return trials, nil
	}
	test, err := stage("core.test_trials", fl, 0)
	if err != nil {
		return out, err
	}
	refs, err := stage("core.reference_trials", ref, 1000)
	if err != nil {
		return out, err
	}
	_, end := tr.begin(ctx, "pe.EvaluateE", op)
	r, err := pe.EvaluateE(test, refs, pe.Options{Seed: c.Net.Seed})
	end()
	out.rep = cellReport(r)
	return out, err
}

// checkRun checks a trial-by-trial cell against its committed entry:
// invariants, digest and work counters.
func (w *conformanceGrid) checkRun(key string, run cellRun) error {
	if err := checkCell(run.rep); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if err := w.exp.check(key, cellDigest(run.rep)); err != nil {
		return err
	}
	if want, _ := w.exp.lookup(key); want.cellWork != run.work {
		return fmt.Errorf("%s: work %+v, committed %+v", key, run.work, want.cellWork)
	}
	return nil
}

func cellReport(r pe.Report) core.CellReport {
	return core.CellReport{
		Conformance:         r.Conformance,
		ConformanceOld:      r.ConformanceOld,
		ConformanceT:        r.ConformanceT,
		DeltaThroughputMbps: r.DeltaThroughputMbps,
		DeltaDelayMs:        r.DeltaDelayMs,
		K:                   r.K,
	}
}

// cellTimes observes a sweep's cells: first-attempt start to final record.
type cellTimes struct {
	mu                sync.Mutex
	start             map[string]time.Time
	latency           map[string]time.Duration
	attempts, retries atomic.Int64
}

func newCellTimes() *cellTimes {
	return &cellTimes{start: map[string]time.Time{}, latency: map[string]time.Duration{}}
}

func (c *cellTimes) onStart(key string, _, attempt int) {
	c.attempts.Add(1)
	if attempt == 1 {
		c.mu.Lock()
		c.start[key] = time.Now()
		c.mu.Unlock()
	}
}

func (c *cellTimes) onRetry(string, int, error, time.Duration) { c.retries.Add(1) }

func (c *cellTimes) onRecord(rec runner.Record) {
	c.mu.Lock()
	c.latency[rec.Key] = time.Since(c.start[rec.Key])
	c.mu.Unlock()
}

// run executes whole sweep passes over the same cells. Untraced, each pass
// is one core.RunSweep call, and a cell's work counters are the committed
// ones, since the sweep path returns no trial results. Traced, the runner
// executes the same cells through runCellTrials under a timing executor,
// and the counters are measured and checked against the committed ones.
func (w *conformanceGrid) run(tr *tracer, lim limit) (*loopResult, error) {
	res := &loopResult{}
	times := newCellTimes()
	distinct := map[string]bool{}
	var points atomic.Int64
	cells := gridCells()
	t0 := time.Now()
	// A pass starts only when one as long as the last should end by the
	// deadline: a run is one pass, or as many as fit in its time.
	var last time.Duration
	for pass := 0; lim.fits(len(res.ops), last); pass++ {
		passStart := time.Now()
		journal := filepath.Join(w.dir, fmt.Sprintf("pass%d.jsonl", pass))
		base := len(res.ops)
		ctx, end := tr.begin(context.Background(), "runner.RunCheckpointed", base)
		var err error
		// runs holds the traced pass's trial-by-trial cells.
		runs := make([]*cellRun, len(cells))
		if tr == nil {
			_, err = core.RunSweep(ctx, core.SweepConfig{
				Workers:      w.workers,
				Checkpoint:   journal,
				OnTrialStart: times.onStart,
				OnRetry:      times.onRetry,
				OnRecord:     times.onRecord,
			}, cells)
		} else {
			trials := make([]runner.Trial, len(cells))
			ops := map[string]int{}
			for i, c := range cells {
				i, c, op := i, c, base+i
				ops[c.Key()] = op
				trials[i] = runner.Trial{Key: c.Key(), Seed: c.Net.Seed,
					Run: func(ctx context.Context) (any, error) {
						run, err := runCellTrials(ctx, tr, op, c)
						if err != nil {
							return nil, err
						}
						runs[i] = &run
						points.Add(int64(run.points))
						return run.rep, nil
					}}
				for t := 0; t < c.Net.Trials; t++ {
					distinct[fmt.Sprintf("%s/%s/seed%d/t%d", c.CCA, c.Net, c.Net.Seed, t)] = true
				}
			}
			_, err = runner.RunCheckpointed(ctx, runner.Config{
				Workers:      w.workers,
				Executor:     timedExecutor{tr: tr, ops: ops},
				OnTrialStart: times.onStart,
				OnRetry:      times.onRetry,
				OnRecord:     times.onRecord,
			}, trials, journal, false)
		}
		end()
		if err != nil {
			return nil, fmt.Errorf("sweep pass %d: %w", pass, err)
		}
		fi, err := os.Stat(journal)
		if err != nil {
			return nil, fmt.Errorf("sweep pass %d: %w", pass, err)
		}
		res.journalBytes += fi.Size()
		res.ops = append(res.ops, w.verifyPass(journal, cells, times, runs)...)
		last = time.Since(passStart)
	}
	res.wall = time.Since(t0)
	res.attempts, res.retries = times.attempts.Load(), times.retries.Load()
	for _, r := range res.ops {
		res.refTrialsRun += r.trials / 2
	}
	res.refTrialsDistinct = len(distinct)
	res.pePoints = int(points.Load())
	return res, nil
}

// verifyPass reads a pass's journal back and checks every cell record:
// completed, invariants hold, digest matches. runs holds the traced pass's
// trial-by-trial cells, whose work counters must also match.
func (w *conformanceGrid) verifyPass(journal string, cells []core.SweepCell, times *cellTimes, runs []*cellRun) []opResult {
	recs, rerr := runner.ReadJournal(journal)
	out := make([]opResult, len(cells))
	for i, c := range cells {
		key := c.Key()
		n := c.Net.WithDefaults()
		r := &out[i]
		r.key, r.trials, r.simSec = key, 2*n.Trials, 2*float64(n.Trials)*n.Duration.Seconds()
		r.latency = times.latency[key]
		want, _ := w.exp.lookup(key)
		r.work = want.cellWork
		rec, ok := recs[key]
		switch {
		case rerr != nil:
			r.err = fmt.Errorf("%s: journal: %w", key, rerr)
			continue
		case !ok:
			r.err = fmt.Errorf("%s: no journal record", key)
			continue
		case rec.Outcome != runner.OutcomeOK && rec.Outcome != runner.OutcomeRetried:
			r.err = fmt.Errorf("%s: %s: %s", key, rec.Outcome, rec.Err)
			continue
		}
		var rep core.CellReport
		if err := json.Unmarshal(rec.Result, &rep); err != nil {
			r.err = fmt.Errorf("%s: journal result: %w", key, err)
			continue
		}
		if err := checkCell(rep); err != nil {
			r.err = fmt.Errorf("%s: %w", key, err)
			continue
		}
		if r.err = w.exp.check(key, cellDigest(rep)); r.err != nil || runs[i] == nil {
			continue
		}
		r.work = runs[i].work
		r.err = w.checkRun(key, *runs[i])
	}
	return out
}

// timedExecutor is the in-process executor inside a span, so the runner's
// busy time is measured where it hands work to a trial.
type timedExecutor struct {
	tr  *tracer
	ops map[string]int
}

func (e timedExecutor) ExecuteTrial(ctx context.Context, t runner.Trial, attempt int) (json.RawMessage, *runner.TrialError) {
	ctx, end := e.tr.begin(ctx, "runner.ExecuteTrial", e.ops[t.Key])
	defer end()
	return runner.InProcess{}.ExecuteTrial(ctx, t, attempt)
}

func (w *conformanceGrid) regen() ([]expectedOp, error) {
	cells := gridCells()
	ops, _ := closedLoop(w.workers, limit{ops: len(cells)}, func(i int) opResult {
		c := cells[i]
		r := opResult{key: c.Key()}
		run, err := runCellTrials(context.Background(), nil, i, c)
		if err == nil {
			err = checkCell(run.rep)
		}
		if err != nil {
			r.err = fmt.Errorf("%s: %w", r.key, err)
		}
		r.digest, r.work = cellDigest(run.rep), run.work
		return r
	})
	out, err := digestsOf(ops)
	for i := range out {
		out[i].cellWork = ops[i].work
	}
	return out, err
}
