package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/parallel"
	"mpgraph/internal/report"
	"mpgraph/internal/timeline"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// size is one workload's scale: the traced application's world size and
// iteration count, and for the Monte Carlo workload the trials per job.
type size struct {
	ranks, iters, trials int
}

// spec names a workload: the registered application it traces and the
// job it runs over that trace. Rationale lives in BENCHMARK.json and
// interactions.json.
type spec struct {
	name string
	app  string
	full size
	// tiny keeps the smoke test fast; it exercises the same code.
	tiny size
	new  func(dir string, seed uint64, sz size) runner
}

var specs = []spec{
	{name: "stream-large", app: "stencil2d", full: size{256, 60, 0}, tiny: size{16, 4, 0}, new: newStream},
	{name: "montecarlo-coll", app: "cg", full: size{64, 100, 300}, tiny: size{8, 4, 12}, new: newMonteCarlo},
	{name: "timeline-export", app: "wavefront", full: size{64, 20, 0}, tiny: size{16, 3, 0}, new: newTimeline},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runner is one workload bound to its generated trace directory.
type runner interface {
	// prepare computes the reference the output check compares
	// against. It runs once, untimed.
	prepare() error
	// job runs one user job. tr is nil in the untraced run.
	job(tr *tracer) (*output, error)
	// check verifies one job's output, outside the timed job.
	check(out *output) error
}

// output is what a job produced, kept until its check.
type output struct {
	events    int64 // trace events traversed (one trial = one traversal)
	trials    int   // perturbed replays
	window    int   // streaming window high-water mark
	compiled  int64 // events in the compiled program, 0 without one
	results   []*core.Result
	agg       trialStats
	tlIssues  []string
	intervals int
	exported  int64
}

// perturbation is the model of all three workloads: exponential OS
// noise and message latency, so every operation draws samples, plus a
// constant per-byte delta.
func perturbation(seed uint64) *core.Model {
	return &core.Model{
		Seed:       seed,
		OSNoise:    dist.Exponential{MeanValue: 200},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.01},
	}
}

// noDraws has perturbation's shape with constants of the same means:
// a replay under it does the same arithmetic but draws no samples.
func noDraws(seed uint64) *core.Model {
	return &core.Model{
		Seed:       seed,
		OSNoise:    dist.Constant{C: 200},
		MsgLatency: dist.Constant{C: 500},
		PerByte:    dist.Constant{C: 0.01},
	}
}

// generate runs the application on the simulated MPI runtime and writes
// its binary trace directory. It stands in for the traced cluster run,
// so it is the benchmark's set-up, not part of a job. The machine's own
// noise makes the traces depend on the seed.
func generate(app string, sz size, seed uint64, dir string) error {
	prog, err := workloads.BuildByName(app, workloads.Options{Iterations: sz.iters})
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	_, err = mpi.Run(mpi.Config{
		Machine:  machine.Config{NRanks: sz.ranks, Seed: seed, Noise: dist.Exponential{MeanValue: 100}},
		TraceDir: dir,
	}, prog)
	return err
}

// traceBytes is the size of the trace directory, all of which a job
// decodes.
func traceBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// compiledReference replays the trace with the compiled engine, the
// reference the streaming jobs are checked against.
func compiledReference(dir string, model *core.Model, opts core.Options) (*core.Result, error) {
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer closeFn() //nolint:errcheck // read-only files
	prog, err := core.Compile(set, core.Options{})
	if err != nil {
		return nil, err
	}
	return core.ReplayCompiled(prog, model, opts)
}

// render is the report step every job ends with, to a discard writer:
// the analysis tables, and the wait-state table when there is a
// timeline.
func render(tr *tracer, res *core.Result, tl *timeline.Timeline) error {
	defer tr.begin("report.render")()
	if err := report.Analysis(io.Discard, res, 32); err != nil {
		return err
	}
	if tl != nil {
		return report.WaitStates(io.Discard, tl, res)
	}
	return nil
}

// stream-large: one job is mpg-analyze — decode and a streaming
// analysis of a trace far larger than the analyzer's window.
type streamRun struct {
	dir   string
	model *core.Model
	ref   *core.Result
}

func newStream(dir string, seed uint64, _ size) runner {
	return &streamRun{dir: dir, model: perturbation(seed)}
}

func (s *streamRun) prepare() (err error) {
	s.ref, err = compiledReference(s.dir, s.model, core.Options{})
	return err
}

func (s *streamRun) job(tr *tracer) (*output, error) {
	set, closeFn, err := tr.openDir(s.dir)
	if err != nil {
		return nil, err
	}
	defer closeFn() //nolint:errcheck // read-only files
	end := tr.begin("core.analyze")
	res, err := core.Analyze(set, s.model, core.Options{})
	end()
	if err != nil {
		return nil, err
	}
	if err := render(tr, res, nil); err != nil {
		return nil, err
	}
	return &output{events: res.Events, trials: 1, window: res.WindowHighWater, results: []*core.Result{res}}, nil
}

func (s *streamRun) check(out *output) error {
	if !reflect.DeepEqual(out.results[0], s.ref) {
		return errors.New("streaming analysis differs from the compiled reference")
	}
	return nil
}

// montecarlo-coll: one job is the compiled Monte Carlo path of
// sweep.Run — compile once, replay every trial over the worker pool,
// aggregate.
type monteCarlo struct {
	dir     string
	model   *core.Model
	seed    uint64
	trials  int
	workers int
	// ref holds streaming analyses of a fixed sample of trials.
	ref map[int]*core.Result
	// first is the aggregate of the first job; later jobs must repeat it.
	first *trialStats
}

// trialStats is the per-point aggregate sweep.Run reports.
type trialStats struct {
	n                          int
	mean, p95, min, max, stdev float64
}

func newMonteCarlo(dir string, seed uint64, sz size) runner {
	return &monteCarlo{dir: dir, model: perturbation(seed), seed: seed, trials: sz.trials, workers: runtime.NumCPU()}
}

// sample picks the trials checked against the streaming engine: the
// first, the last and two in between.
func (m *monteCarlo) sample() []int {
	return []int{0, m.trials / 3, 2 * m.trials / 3, m.trials - 1}
}

func (m *monteCarlo) trialModel(t int) *core.Model {
	trial := m.model.Clone()
	trial.Seed = parallel.TaskSeed(m.seed, t)
	return trial
}

func (m *monteCarlo) prepare() error {
	m.ref = map[int]*core.Result{}
	for _, t := range m.sample() {
		set, closeFn, err := trace.OpenDir(m.dir)
		if err != nil {
			return err
		}
		res, err := core.Analyze(set, m.trialModel(t), core.Options{})
		closeFn() //nolint:errcheck // read-only files
		if err != nil {
			return err
		}
		m.ref[t] = res
	}
	return nil
}

// replayAll is the fan-out: every trial replays the compiled program
// under its own derived seed on a pool of the given size.
func (m *monteCarlo) replayAll(tr *tracer, prog *core.Compiled, model func(int) *core.Model, workers int) ([]*core.Result, error) {
	return parallel.Map(m.trials, parallel.Options{Workers: workers}, func(t int) (*core.Result, error) {
		trial := model(t)
		defer tr.replay()()
		return core.ReplayCompiled(prog, trial, core.Options{})
	})
}

func (m *monteCarlo) compile(tr *tracer) (*core.Compiled, error) {
	set, closeFn, err := tr.openDir(m.dir)
	if err != nil {
		return nil, err
	}
	defer closeFn() //nolint:errcheck // read-only files
	defer tr.begin("core.compile")()
	return core.Compile(set, core.Options{})
}

func (m *monteCarlo) job(tr *tracer) (*output, error) {
	prog, err := m.compile(tr)
	if err != nil {
		return nil, err
	}
	end := tr.begin("parallel.map")
	results, err := m.replayAll(tr, prog, m.trialModel, m.workers)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("dist.aggregate")
	agg := aggregate(results)
	end()
	if err := render(tr, results[0], nil); err != nil {
		return nil, err
	}
	return &output{events: int64(m.trials) * prog.Events(), trials: m.trials, window: results[0].WindowHighWater,
		compiled: prog.Events(), results: results, agg: agg}, nil
}

// aggregate folds the trials' MaxFinalDelay as sweep.Run does.
func aggregate(results []*core.Result) trialStats {
	var w dist.Welford
	maxima := make([]float64, len(results))
	for i, r := range results {
		maxima[i] = r.MaxFinalDelay
		w.Add(r.MaxFinalDelay)
	}
	return trialStats{len(results), w.Mean(), dist.Quantile(maxima, 0.95), w.Min(), w.Max(), w.StdDev()}
}

func (m *monteCarlo) check(out *output) error {
	if len(out.results) != m.trials {
		return fmt.Errorf("%d results for %d trials", len(out.results), m.trials)
	}
	for _, t := range m.sample() {
		if !reflect.DeepEqual(out.results[t], m.ref[t]) {
			return fmt.Errorf("trial %d: compiled replay differs from the streaming analysis", t)
		}
	}
	if m.first == nil {
		agg := out.agg
		m.first = &agg
	} else if !reflect.DeepEqual(out.agg, *m.first) {
		return errors.New("trial aggregate differs from the first job's")
	}
	return nil
}

// timeline-export: one job is mpg-analyze -timeline — streaming
// analysis with critical-path recording and the interval hook, the
// timeline check, the reports, and the Perfetto export to a file.
type timelineRun struct {
	dir, out string
	model    *core.Model
	ref      *core.Result
	digest   [sha256.Size]byte // of the first job's export, once validated
}

func newTimeline(dir string, seed uint64, _ size) runner {
	return &timelineRun{dir: dir, out: filepath.Join(filepath.Dir(dir), "timeline.json"), model: perturbation(seed)}
}

func (r *timelineRun) prepare() (err error) {
	r.ref, err = compiledReference(r.dir, r.model, core.Options{RecordCritPath: true})
	return err
}

func (r *timelineRun) job(tr *tracer) (*output, error) {
	set, closeFn, err := tr.openDir(r.dir)
	if err != nil {
		return nil, err
	}
	defer closeFn() //nolint:errcheck // read-only files
	tl := timeline.New(0)
	end := tr.begin("core.analyze")
	res, err := core.Analyze(set, r.model, core.Options{RecordCritPath: true, Interval: tr.interval(tl.Record)})
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("timeline.check")
	issues := tl.Check(res)
	end()
	if err := render(tr, res, tl); err != nil {
		return nil, err
	}
	n, err := r.export(tr, tl, res)
	if err != nil {
		return nil, err
	}
	intervals := 0
	for _, evs := range tl.Ranks {
		intervals += len(evs)
	}
	return &output{events: res.Events, trials: 1, window: res.WindowHighWater, results: []*core.Result{res},
		tlIssues: issues, intervals: intervals, exported: n}, nil
}

func (r *timelineRun) export(tr *tracer, tl *timeline.Timeline, res *core.Result) (int64, error) {
	defer tr.begin("timeline.export")()
	f, err := os.Create(r.out)
	if err != nil {
		return 0, err
	}
	if err := tl.WriteJSON(f, timeline.ExportOptions{CritPath: res.CritPath}); err != nil {
		f.Close() //nolint:errcheck // the write error is the one to report
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close() //nolint:errcheck // the stat error is the one to report
		return 0, err
	}
	return fi.Size(), f.Close()
}

func (r *timelineRun) check(out *output) error {
	if len(out.tlIssues) > 0 {
		return fmt.Errorf("timeline check: %s", out.tlIssues[0])
	}
	if !reflect.DeepEqual(out.results[0], r.ref) {
		return errors.New("streaming analysis differs from the compiled reference")
	}
	data, err := os.ReadFile(r.out)
	if err != nil {
		return err
	}
	// Validating 7.5 MB of JSON takes longer than the job, so it runs
	// once; every later export must repeat the validated bytes exactly.
	d := sha256.Sum256(data)
	if r.digest == ([sha256.Size]byte{}) {
		if msgs := timeline.Validate(data); len(msgs) > 0 {
			return fmt.Errorf("exported timeline: %s", msgs[0])
		}
		r.digest = d
	} else if d != r.digest {
		return errors.New("exported timeline differs from the first job's, which was validated")
	}
	return nil
}
