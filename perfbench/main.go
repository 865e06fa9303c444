// Command perfbench is the repository's benchmark: it runs the analysis
// pipeline a user runs — trace decode, match/compile, replay,
// aggregate, report/export — through the public functions of each
// layer, on one of three workloads, checks every job's output, and
// prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload stream-large --seed 1 --seconds 30 --trace 0
//
// The seed drives both the simulated machine that generates the traces
// and the perturbation model. Load is a closed loop with one client:
// jobs run back to back in this process. With --trace 0 the run reports
// the end-to-end metrics; with --trace 1 it alternates untraced jobs
// with jobs that record spans around every call into a layer, and
// reports per-layer metrics, the stage ledger and the tracing overhead.
// End-to-end times are given at the nominal speed of a host reference
// timed alongside the set-ups and jobs (hostref.go).
// The last line of standard output is the result object; the lines
// before it give the number of jobs behind job_s_p50 with the raw
// medians and the host reference's slowdowns or, when traced, the
// ledger, and the host fingerprint.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpgraph/internal/dist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	out      string
	// tiny runs the workload at smoke-test size; only tests set it.
	tiny bool
	// prepared, when set, sees the runner after its reference is
	// computed; tests use it to corrupt the reference.
	prepared func(runner)
}

// Set-up runs at least minSetups times and until setupSeconds have
// passed, at most maxSetups times; setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 15
	setupSeconds = 2.0
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer names every per-layer metric with its unit, as
// BENCHMARK.json lists them; a traced run reports each, 0 for a layer
// the workload does not exercise.
var perLayer = []struct{ name, unit string }{
	{"trace.open_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.records_per_s", "1/s"},
	{"trace.allocs_per_record", "count"},
	{"trace.bytes_read", "bytes"},
	{"core.analyze_self_ms", "ms"},
	{"core.analyze_ns_per_event", "ns"},
	{"core.window_high_water", "count"},
	{"core.compile_ms", "ms"},
	{"core.compiled_events", "count"},
	{"core.compile_allocs", "count"},
	{"core.replay_ms", "ms"},
	{"core.replay_us_p50", "us"},
	{"core.replay_us_p90", "us"},
	{"core.replay_allocs", "count"},
	{"core.replay_ns_per_event", "ns"},
	{"core.replay_nodraw_us_p50", "us"},
	{"core.replay_draw_share", "ratio"},
	{"parallel.overhead_ms", "ms"},
	{"parallel.utilization", "ratio"},
	{"parallel.scaling", "ratio"},
	{"dist.aggregate_us", "us"},
	{"timeline.record_ms", "ms"},
	{"timeline.intervals", "count"},
	{"timeline.check_ms", "ms"},
	{"timeline.export_ms", "ms"},
	{"timeline.export_bytes", "bytes"},
	{"timeline.export_mb_per_s", "MB/s"},
	{"report.render_ms", "ms"},
	{"runtime.alloc_mb_per_job", "MB"},
	{"runtime.gc_cycles_per_job", "count"},
	{"job.wall_ms", "ms"},
	{"job.other_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: stream-large, montecarlo-coll or timeline-export")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the traces and the perturbation model")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "seconds of measured jobs")
	fs.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-run"), "directory for traces, exports and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.traced = traceFlag == 1
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs the benchmark and prints its result line; it returns
// the exit code.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	res, err := bench(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// tally counts jobs and keeps the first failure for the error report.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// jobs is the outcome of one series of measured jobs.
type jobs struct {
	walls []float64 // seconds per job
	last  *output
	rt    runtimeCounters // allocations and GC cycles inside the jobs
	gc    [][2]uint64     // per job, the GC cycle count before and after
	// endHeap is, per job, the live heap after it, measured by a GC
	// outside its timing while its output is still held.
	endHeap []uint64
}

// loop runs jobs back to back for the given time, each after a GC so
// that one job's garbage is not collected on the next one's clock. The
// check of each output runs outside its timed job, and so does the
// sample of the host reference after each job, when ref is not nil.
// Jobs cycle through the tracers, nil meaning untraced, and are
// reported per tracer, so that a traced and an untraced series see the
// same conditions.
func loop(r runner, trs []*tracer, seconds float64, tl *tally, ref *hostRef) ([]jobs, error) {
	js := make([]jobs, len(trs))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < len(trs) || time.Now().Before(deadline); n++ {
		k := n % len(trs)
		tr := trs[k]
		runtime.GC()
		tl.attempted++
		before := readCounters()
		tr.startJob(n)
		start := time.Now()
		out, err := r.job(tr)
		wall := time.Since(start)
		if tr != nil {
			wall = tr.endJob()
		}
		after := readCounters()
		live := liveHeapAfterGC()
		if err == nil {
			err = r.check(out)
		}
		if err != nil {
			tl.fail(err)
			continue
		}
		js[k].walls = append(js[k].walls, wall.Seconds())
		// Keep the counts but not the results, so that the next job's
		// heap does not hold this one's output.
		kept := *out
		kept.results, kept.tlIssues = nil, nil
		js[k].last = &kept
		js[k].rt = js[k].rt.add(after.sub(before))
		js[k].gc = append(js[k].gc, [2]uint64{before.gcCycles, after.gcCycles})
		js[k].endHeap = append(js[k].endHeap, live)
		if ref != nil {
			if err := ref.sample(); err != nil {
				return nil, err
			}
		}
	}
	return js, nil
}

func median(xs []float64) float64 { return dist.Quantile(xs, 0.5) }

func bench(cfg config, stdout, stderr io.Writer) (*result, error) {
	sp, ok := lookup(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	sz := sp.full
	if cfg.tiny {
		sz = sp.tiny
	}
	cal := &calibration{}
	cal.sample()

	work := filepath.Join(cfg.out, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "traces")
	setupRef := newHostRef(filepath.Join(work, "hostref"))
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupSeconds && len(setups) < maxSetups); {
		start := time.Now()
		if err := generate(sp.app, sz, cfg.seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
		if err := setupRef.sample(); err != nil {
			return nil, err
		}
	}
	r := sp.new(dir, cfg.seed, sz)
	if err := r.prepare(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if cfg.prepared != nil {
		cfg.prepared(r)
	}

	var tl tally
	// warm-up: one job, checked, untimed
	if _, err := loop(r, []*tracer{nil}, 0, &tl, nil); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if !cfg.traced {
		hs := startHeapSampler()
		jobRef := newHostRef(setupRef.dir)
		series, err := loop(r, []*tracer{nil}, cfg.seconds, &tl, jobRef)
		if err != nil {
			return nil, err
		}
		js := series[0]
		peaks := hs.peaks(js.gc, js.endHeap)
		if js.last != nil {
			// Times are reported at the host reference's nominal speed;
			// the line before the result gives the raw medians.
			setupSlow, jobSlow := setupRef.slowdown(), jobRef.slowdown()
			raw := median(js.walls)
			p50 := raw / jobSlow
			if err := printJSON(stdout, map[string]interface{}{
				"job_s_p50_samples": len(js.walls),
				"host_ref": map[string]interface{}{
					"setup_slowdown": setupSlow, "job_slowdown": jobSlow,
					"raw_setup_s": median(setups), "raw_job_s_p50": raw,
					"job_kernel_s": jobRef.medians(),
				},
			}); err != nil {
				return nil, err
			}
			res.set("setup_s", median(setups)/setupSlow, "s")
			res.set("job_s_p50", p50, "s")
			res.set("events_per_s", float64(js.last.events)/p50, "1/s")
			res.set("trials_per_s", float64(js.last.trials)/p50, "1/s")
			// A job's peak is sampled only at its GCs, so it varies
			// with where they fall; p90 over jobs is near the true
			// peak without hanging on one job.
			res.set("peak_heap_mb", dist.Quantile(peaks, 0.9)/(1<<20), "MB")
		}
	} else if err := traced(cfg, r, dir, res, &tl, stdout); err != nil {
		return nil, err
	}
	cal.sample()
	if err := printJSON(stdout, map[string]interface{}{"host": cal.fingerprint()}); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = tl.attempted, tl.failed
	res.Correct = tl.failed == 0
	if tl.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d jobs failed; first: %v\n", sp.name, tl.failed, tl.attempted, tl.firstErr)
	}
	return res, nil
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

func printJSON(w io.Writer, v interface{}) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// traced is the --trace 1 run: untraced and traced jobs alternate, then
// the probes that need a quiet process run. Layers a workload does not
// exercise report 0.
func traced(cfg config, r runner, dir string, res *result, tl *tally, stdout io.Writer) error {
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
	tr := newTracer()
	series, err := loop(r, []*tracer{nil, tr}, cfg.seconds, tl, nil)
	if err != nil {
		return err
	}
	plain, traced := series[0], series[1]
	if plain.last == nil || traced.last == nil {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	spansPath := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(spansPath); err != nil {
		return err
	}
	led, njobs, err := ledger(tr.spans)
	if err != nil {
		return err
	}
	perJob := func(name string) float64 { return float64(led[name]) / float64(njobs) }
	ms := func(name string) float64 { return perJob(name) / 1e6 }
	wall := perJob("job.wall")
	shares := map[string]float64{}
	for name, ns := range led {
		if name != "job.wall" {
			shares[name] = float64(ns) / float64(led["job.wall"])
		}
	}
	if err := printJSON(stdout, map[string]interface{}{"ledger_share": shares, "spans": spansPath}); err != nil {
		return err
	}

	out := traced.last
	res.set("trace.open_ms", ms("trace.open"), "ms")
	res.set("trace.decode_ms", ms("trace.decode"), "ms")
	var decodeCalls int64
	var replays []float64
	var replayBusy, fanout int64
	for _, s := range tr.spans {
		switch s.Name {
		case "trace.decode":
			decodeCalls += s.Calls
		case "core.replay":
			replays = append(replays, float64(s.dur())/1e3)
			replayBusy += s.dur()
		case "parallel.map":
			fanout += s.dur()
		}
	}
	if led["trace.decode"] > 0 {
		res.set("trace.records_per_s", float64(decodeCalls)/(float64(led["trace.decode"])/1e9), "1/s")
	}
	res.set("core.analyze_self_ms", ms("core.analyze"), "ms")
	if led["core.analyze"] > 0 {
		res.set("core.analyze_ns_per_event", perJob("core.analyze")/float64(out.events), "ns")
	}
	res.set("core.window_high_water", float64(out.window), "count")
	res.set("core.compile_ms", ms("core.compile"), "ms")
	res.set("core.compiled_events", float64(out.compiled), "count")
	res.set("core.replay_ms", ms("core.replay"), "ms")
	if len(replays) > 0 {
		p50 := median(replays)
		res.set("core.replay_us_p50", p50, "us")
		res.set("core.replay_us_p90", dist.Quantile(replays, 0.9), "us")
		res.set("core.replay_ns_per_event", p50*1e3/float64(out.compiled), "ns")
	}
	res.set("parallel.overhead_ms", ms("parallel.map"), "ms")
	if fanout > 0 {
		res.set("parallel.utilization", float64(replayBusy)/(float64(runtime.NumCPU())*float64(fanout)), "ratio")
	}
	res.set("dist.aggregate_us", perJob("dist.aggregate")/1e3, "us")
	res.set("timeline.record_ms", ms("timeline.record"), "ms")
	res.set("timeline.intervals", float64(out.intervals), "count")
	res.set("timeline.check_ms", ms("timeline.check"), "ms")
	res.set("timeline.export_ms", ms("timeline.export"), "ms")
	res.set("timeline.export_bytes", float64(out.exported), "bytes")
	if led["timeline.export"] > 0 {
		res.set("timeline.export_mb_per_s", float64(out.exported)/(1<<20)/(perJob("timeline.export")/1e9), "MB/s")
	}
	res.set("report.render_ms", ms("report.render"), "ms")
	n := float64(len(plain.walls))
	res.set("runtime.alloc_mb_per_job", float64(plain.rt.allocBytes)/(1<<20)/n, "MB")
	res.set("runtime.gc_cycles_per_job", float64(plain.rt.gcCycles)/n, "count")
	res.set("job.wall_ms", wall/1e6, "ms")
	res.set("job.other_ms", ms("job.other"), "ms")
	res.set("trace_overhead_frac", median(traced.walls)/median(plain.walls)-1, "ratio")

	if err := decodeProbe(dir, res); err != nil {
		return err
	}
	if mc, ok := r.(*monteCarlo); ok {
		return mc.probe(res)
	}
	return nil
}
