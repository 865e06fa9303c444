package main

import (
	"errors"
	"io"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/parallel"
	"mpgraph/internal/trace"
)

// The probes run after the traced jobs, alone in the process, to
// measure what spans cannot: allocations of one layer's calls, the
// replay cost of sampling, and the fan-out's scaling. They time the
// same public functions the jobs call and change no job.

// decodeProbe drains the trace directory through trace.Reader alone.
func decodeProbe(dir string, res *result) error {
	n, err := traceBytes(dir)
	if err != nil {
		return err
	}
	res.set("trace.bytes_read", float64(n), "bytes")
	before := readCounters()
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		return err
	}
	defer closeFn() //nolint:errcheck // read-only files
	var records int64
	for i := 0; i < set.NRanks(); i++ {
		for {
			_, err := set.Rank(i).Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			records++
		}
	}
	d := readCounters().sub(before)
	res.set("trace.allocs_per_record", float64(d.allocObjects)/float64(records), "count")
	return nil
}

// probeReplays bounds the serial replays the probe times per model.
const probeReplays = 100

// probe measures the Monte Carlo workload's compile allocations, the
// serial replay cost with and without sampling draws (the same trial
// seeds under noDraws, so only the draws differ), allocations per
// replay, and trials/s of the fan-out at nproc workers over 1 worker.
func (m *monteCarlo) probe(res *result) error {
	const compiles = 3
	var prog *core.Compiled
	before := readCounters()
	for i := 0; i < compiles; i++ {
		var err error
		if prog, err = m.compile(nil); err != nil {
			return err
		}
	}
	res.set("core.compile_allocs", float64(readCounters().sub(before).allocObjects)/compiles, "count")

	n := min(m.trials, probeReplays)
	var draw, nodraw []float64
	for t := 0; t < n; t++ {
		us, err := timeReplay(prog, m.trialModel(t))
		if err != nil {
			return err
		}
		draw = append(draw, us)
		if us, err = timeReplay(prog, noDraws(parallel.TaskSeed(m.seed, t))); err != nil {
			return err
		}
		nodraw = append(nodraw, us)
	}
	p50, nd := median(draw), median(nodraw)
	res.set("core.replay_nodraw_us_p50", nd, "us")
	res.set("core.replay_draw_share", 1-nd/p50, "ratio")

	before = readCounters()
	for t := 0; t < n; t++ {
		if _, err := core.ReplayCompiled(prog, m.trialModel(t), core.Options{}); err != nil {
			return err
		}
	}
	res.set("core.replay_allocs", float64(readCounters().sub(before).allocObjects)/float64(n), "count")

	var walls [2][]float64 // fan-out seconds at 1 and at nproc workers
	for i := 0; i < 3; i++ {
		for k, w := range []int{1, m.workers} {
			start := time.Now()
			if _, err := m.replayAll(nil, prog, m.trialModel, w); err != nil {
				return err
			}
			walls[k] = append(walls[k], time.Since(start).Seconds())
		}
	}
	res.set("parallel.scaling", median(walls[0])/median(walls[1]), "ratio")
	return nil
}

func timeReplay(prog *core.Compiled, model *core.Model) (float64, error) {
	start := time.Now()
	_, err := core.ReplayCompiled(prog, model, core.Options{})
	return float64(time.Since(start)) / 1e3, err
}
