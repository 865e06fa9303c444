package mpi_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// scheduleShapes are the benchmark's trace-generation shapes (stencil2d
// 256×60, cg 64×100, wavefront 64×20) with the SHA-256 of their trace
// directories at seed 1. The traces depend on the order in which the
// runtime sequences ranks (machine noise is drawn per call), so any
// change to the scheduler's pick order shows up here.
var scheduleShapes = []struct {
	app          string
	ranks, iters int
	digest       string
}{
	{"stencil2d", 256, 60, "509946864d2caf2e6362958ad5cbb8a28faee6e415404e852ccdc46648b6393e"},
	{"cg", 64, 100, "2dcfe945dd3f1584d2439108243cc62dc7ec30744094c59b0fa1b6d0ca27ac1b"},
	{"wavefront", 64, 20, "98f0ea1275fecbefcaba9ca83facd6fd9af4f3696747d9702293bcc13bb0cdea"},
}

// benchMachine is the machine the benchmark's set-up runs on.
func benchMachine(ranks int, seed uint64) machine.Config {
	return machine.Config{NRanks: ranks, Seed: seed, Noise: dist.Exponential{MeanValue: 100}}
}

// traceDirDigest hashes every rank file of a trace directory, in rank
// order, name and contents.
func traceDirDigest(t *testing.T, dir string, ranks int) string {
	t.Helper()
	h := sha256.New()
	for rank := 0; rank < ranks; rank++ {
		name := trace.FileName(rank)
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestScheduleDigest(t *testing.T) {
	for _, s := range scheduleShapes {
		t.Run(fmt.Sprintf("%s-%dx%d", s.app, s.ranks, s.iters), func(t *testing.T) {
			prog, err := workloads.BuildByName(s.app, workloads.Options{Iterations: s.iters})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := mpi.Run(mpi.Config{Machine: benchMachine(s.ranks, 1), TraceDir: dir}, prog); err != nil {
				t.Fatal(err)
			}
			if got := traceDirDigest(t, dir, s.ranks); got != s.digest {
				t.Fatalf("trace digest = %s, want %s", got, s.digest)
			}
		})
	}
}

// quietMachine has deterministic, noise-free timing: overhead 100,
// latency 1000, bandwidth 1 B/cycle, rendezvous sends.
func quietMachine(ranks int) machine.Config { return machine.Config{NRanks: ranks, Seed: 1} }

// TestScheduleTieBreakLowestRank checks the pick order: the earliest
// virtual time runs first, and among ranks ready at the same time the
// lowest rank.
func TestScheduleTieBreakLowestRank(t *testing.T) {
	type step struct {
		rank int
		now  int64
	}
	var order []step // appended by whichever rank holds the baton
	_, err := mpi.Run(mpi.Config{Machine: quietMachine(8), DisableTracing: true}, func(r *mpi.Rank) error {
		for k := 0; k < 3; k++ {
			order = append(order, step{r.Rank(), r.Now()})
			r.Compute(int64(1000 * (1 + (r.Rank()+k)%3)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank leaves init at time 100; the first compute splits them
	// into three groups of equal times.
	want := []step{
		{0, 100}, {1, 100}, {2, 100}, {3, 100}, {4, 100}, {5, 100}, {6, 100}, {7, 100},
		{0, 1100}, {3, 1100}, {6, 1100}, {1, 2100}, {4, 2100}, {7, 2100},
		{0, 3100}, {2, 3100}, {3, 3100}, {5, 3100}, {6, 3100}, {2, 4100}, {5, 4100},
		{1, 5100}, {4, 5100}, {7, 5100},
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("run order\n%v\nwant\n%v", order, want)
	}
}

// TestDeadlockText pins the deadlock report byte for byte for every
// kind of stall: blocking send, blocking receive, ANY-source receive,
// wait on either side, and collectives on the world and on split
// communicators.
func TestDeadlockText(t *testing.T) {
	cases := []struct {
		name  string
		ranks int
		prog  mpi.Program
		want  string
	}{
		{"p2p", 6, func(r *mpi.Rank) error {
			switch r.Rank() {
			case 0:
				r.Send(1, 5, 100)
			case 1:
				r.Recv(2, 6)
			case 2:
				r.RecvAny(7)
			case 3:
				r.Wait(r.Irecv(4, 8))
			case 4:
				r.Wait(r.Isend(3, 9, 100))
			case 5:
				r.Barrier()
			}
			return nil
		}, "mpi: deadlock; blocked ranks: [rank 0: send(dst=1 tag=5) rank 1: recv(src=2 tag=6) " +
			"rank 2: recv(src=ANY tag=7) rank 3: wait(recv tag=8 peer=4) rank 4: wait(send tag=9 peer=3) " +
			"rank 5: barrier(comm=0 seq=1)]"},
		{"subcomm", 4, func(r *mpi.Rank) error {
			sub := r.World().Split(r.Rank()%2, 0)
			sub.Barrier()
			switch r.Rank() {
			case 0:
				sub.Allreduce(8)
			case 1:
				sub.Bcast(0, 8)
			case 3:
				sub.Recv(0, 3)
			}
			return nil
		}, "mpi: deadlock; blocked ranks: [rank 0: allreduce(comm=1 seq=2) rank 1: bcast(comm=2 seq=2) " +
			"rank 3: recv(src=1 tag=3)]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := mpi.Run(mpi.Config{Machine: quietMachine(c.ranks)}, c.prog)
			if err == nil {
				t.Fatal("deadlock not detected")
			}
			if err.Error() != c.want {
				t.Fatalf("error =\n%q\nwant\n%q", err.Error(), c.want)
			}
		})
	}
}

// waitGoroutines waits for the rank goroutines of finished runs to
// exit, and fails if more than base goroutines remain.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after the run, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbortOnRankError fails one rank while others are blocked on its
// message, blocked in a collective with it, and ready with work left:
// the run stops at once, reports exactly that rank's error, and every
// rank unwinds.
func TestAbortOnRankError(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	finished := 0
	_, err := mpi.Run(mpi.Config{Machine: quietMachine(16)}, func(r *mpi.Rank) error {
		me := r.Rank()
		color := 1
		if me < 6 {
			color = 0
		}
		sub := r.World().Split(color, 0)
		switch {
		case me == 5:
			r.Compute(1000)
			return boom
		case me == 4:
			r.Recv(5, 0)
		case me < 4:
			sub.Barrier()
		default:
			for k := 0; k < 1000; k++ {
				r.Compute(100)
			}
			finished++
		}
		return nil
	})
	if !errors.Is(err, boom) || err.Error() != "mpi: rank 5: boom" {
		t.Fatalf("err = %v, want mpi: rank 5: boom", err)
	}
	if finished != 0 {
		t.Fatalf("%d ranks ran to completion after rank 5 failed", finished)
	}
	waitGoroutines(t, base)
}

// TestAbortDeadlockWithReadyRanks deadlocks two ranks at the start
// while the others keep running: the deadlock is reported only once
// nothing else can run, it lists just the stuck ranks, and every rank
// unwinds.
func TestAbortDeadlockWithReadyRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	const iters = 50
	finished := 0
	_, err := mpi.Run(mpi.Config{Machine: quietMachine(8)}, func(r *mpi.Rank) error {
		switch me := r.Rank(); me {
		case 0:
			r.Recv(1, 0)
		case 1:
			r.Recv(0, 0)
		default: // a ring over ranks 2..7
			next, prev := 2+(me-1)%6, 2+(me+3)%6
			for k := 0; k < iters; k++ {
				r.Compute(int64(100 * me))
				r.Sendrecv(next, 1, 64, prev, 1)
			}
			finished++
		}
		return nil
	})
	const want = "mpi: deadlock; blocked ranks: [rank 0: recv(src=1 tag=0) rank 1: recv(src=0 tag=0)]"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if finished != 6 {
		t.Fatalf("%d ring ranks finished before the deadlock was reported, want 6", finished)
	}
	waitGoroutines(t, base)
}

// BenchmarkRunRanks times the runtime on a stencil2d run (tracing off)
// at two world sizes and reports the cost of one scheduling step, so
// the scheduler's scaling with rank count shows directly.
func BenchmarkRunRanks(b *testing.B) {
	for _, ranks := range []int{32, 256} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			prog, err := workloads.BuildByName("stencil2d", workloads.Options{Iterations: 10})
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := mpi.Run(mpi.Config{Machine: benchMachine(ranks, 1), DisableTracing: true}, prog)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Stats.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}

// TestRunAllocBytes bounds what one 256-rank run into a trace
// directory allocates. Each rank's PMPI buffer holds encoded records
// and grows on demand; preallocating the default 4096 records per rank
// alone would take about 80 MB here.
func TestRunAllocBytes(t *testing.T) {
	prog, err := workloads.BuildByName("stencil2d", workloads.Options{Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := mpi.Run(mpi.Config{Machine: benchMachine(256, 1), TraceDir: dir}, prog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	const bound = 20 << 20
	if got > bound {
		t.Fatalf("run allocated %.1f MB, want at most %d MB", float64(got)/(1<<20), bound>>20)
	}
}
