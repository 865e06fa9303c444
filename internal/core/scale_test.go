package core

import (
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/workloads"
)

// TestLargeTraceStreams drives a ~300k-event, 128-rank trace through
// the analyzer and checks the §4.2/§6 scalability claims: the window
// stays tiny relative to the trace and the whole analysis completes
// in well under test-timeout territory.
func TestLargeTraceStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("large trace test skipped in -short mode")
	}
	prog, err := workloads.BuildByName("stencil1d",
		workloads.Options{Iterations: 300, CollEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: 128, Seed: 1}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{
		Seed:       1,
		OSNoise:    dist.Exponential{MeanValue: 50},
		MsgLatency: dist.Exponential{MeanValue: 200},
	}
	res, err := Analyze(set, model, Options{Burst: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 300_000 {
		t.Fatalf("expected >= 300k events, got %d", res.Events)
	}
	// The window must be a tiny fraction of the trace: bounded by
	// in-flight operations, not by length.
	if res.WindowHighWater > 2_000 {
		t.Fatalf("window high water %d for %d events — streaming claim violated",
			res.WindowHighWater, res.Events)
	}
	if res.MaxFinalDelay <= 0 {
		t.Fatal("no delay propagated")
	}
	t.Logf("events=%d window=%d max-delay=%.0f", res.Events, res.WindowHighWater, res.MaxFinalDelay)
}

// TestStreamingRequestsBounded checks that the analyzer keeps only the
// requests in flight (DESIGN.md §5): each is released at its completing
// wait, so a fully waited trace leaves none behind, and the most held
// at once does not grow when the same program runs four times longer.
func TestStreamingRequestsBounded(t *testing.T) {
	model := &Model{
		Seed:       1,
		OSNoise:    dist.Exponential{MeanValue: 50},
		MsgLatency: dist.Exponential{MeanValue: 200},
	}
	peakHeld := func(iters int) int {
		prog, err := workloads.BuildByName("stencil2d", workloads.Options{Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		set := traceWorkload(t, machine.Config{NRanks: 16, Seed: 3}, prog)
		var a *analyzer
		peak := 0
		// The trajectory hook fires once per completed record, which
		// samples the analyzer's state after every step.
		opts := Options{Trajectory: func(TrajectoryPoint) {
			held := 0
			for _, rs := range a.ranks {
				held += len(rs.reqs)
			}
			if held > peak {
				peak = held
			}
		}}
		a, err = newAnalyzer(set, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.run(); err != nil {
			t.Fatal(err)
		}
		for _, rs := range a.ranks {
			if rs.sendReqs == 0 || rs.unwaited != 0 {
				t.Fatalf("iters=%d rank %d: %d sends posted, %d unwaited; the trace must wait on every request",
					iters, rs.rank, rs.sendReqs, rs.unwaited)
			}
			if n := len(rs.reqs); n != 0 {
				t.Errorf("iters=%d rank %d: %d requests retained at EOF, want 0", iters, rs.rank, n)
			}
		}
		return peak
	}
	short, long := peakHeld(10), peakHeld(40)
	if long > short {
		t.Fatalf("peak retained requests grew with trace length: %d at 10 iterations, %d at 40", short, long)
	}
	t.Logf("peak retained requests: %d at 10 iterations, %d at 40", short, long)
}
