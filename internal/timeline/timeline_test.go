package timeline

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/obsv"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// replayTimeline runs a deterministic workload through the compiled
// engine with interval recording on and returns the timeline plus the
// replay result.
func replayTimeline(t *testing.T, model *core.Model) (*Timeline, *core.Result) {
	t.Helper()
	return appTimeline(t, "tokenring", machine.Config{NRanks: 4, Seed: 1}, 3, model)
}

// appTimeline traces app on the simulated machine and replays the
// trace compiled under model with interval and critical-path
// recording on.
func appTimeline(tb testing.TB, app string, mc machine.Config, iters int, model *core.Model) (*Timeline, *core.Result) {
	tb.Helper()
	dir := tb.TempDir()
	prog, err := workloads.BuildByName(app, workloads.Options{Iterations: iters})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := mpi.Run(mpi.Config{Machine: mc, TraceDir: dir}, prog); err != nil {
		tb.Fatal(err)
	}
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer closeFn() //nolint:errcheck
	c, err := core.Compile(set, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tl := New(c.NRanks())
	res, err := core.ReplayCompiled(c, model, core.Options{
		RecordCritPath: true,
		Interval:       tl.Record,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tl, res
}

func noisyModel() *core.Model {
	return &core.Model{
		Seed:       7,
		OSNoise:    dist.Exponential{MeanValue: 40},
		MsgLatency: dist.Exponential{MeanValue: 150},
	}
}

func TestCheckPassesOnRealReplay(t *testing.T) {
	tl, res := replayTimeline(t, noisyModel())
	if bad := tl.Check(res); len(bad) > 0 {
		t.Fatalf("exact decomposition violated:\n%s", strings.Join(bad, "\n"))
	}
	if len(tl.Flows) == 0 {
		t.Fatal("tokenring recorded no message flows")
	}
	var total float64
	for _, w := range tl.Waits {
		total += w.Total
	}
	if total <= 0 {
		t.Fatal("noisy replay recorded no waiting at all")
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(tl *Timeline)
		want string
	}{
		{"completion", func(tl *Timeline) {
			evs := tl.Ranks[0]
			evs[len(evs)-1].End += 0.5
		}, "track ends at"},
		{"wait total", func(tl *Timeline) {
			tl.Waits[1].Total += 1
		}, "wait total"},
		{"event order", func(tl *Timeline) {
			tl.Ranks[2][0].Index = 99
		}, "out of order"},
		{"dangling flow", func(tl *Timeline) {
			tl.Flows[0].SrcEvent = 1 << 30
		}, "dangling endpoint"},
		{"negative wait", func(tl *Timeline) {
			e := &tl.Ranks[0][0]
			e.Wait = -1
			e.State = core.WaitLateSender
		}, "negative wait"},
		{"wait without state", func(tl *Timeline) {
			// Find an event with a real wait and erase its state.
			for r := range tl.Ranks {
				for i := range tl.Ranks[r] {
					if tl.Ranks[r][i].Wait > 0 {
						tl.Ranks[r][i].State = core.WaitNone
						return
					}
				}
			}
		}, "without a wait state"},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			tl, res := replayTimeline(t, noisyModel())
			tc.mut(tl)
			bad := tl.Check(res)
			if len(bad) == 0 {
				t.Fatal("corruption not detected")
			}
			found := false
			for _, m := range bad {
				if strings.Contains(m, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no message mentions %q:\n%s", tc.want, strings.Join(bad, "\n"))
			}
		})
	}
}

func TestRecordClampsAndBuckets(t *testing.T) {
	tl := New(1)
	tl.Record(core.IntervalPoint{Rank: 0, Event: 0, OrigBegin: 0, OrigEnd: 10, PeerRank: -1})
	// Starts nominally at 8 but the previous interval ends at 10: the
	// start clamps up, and a wait larger than the interval clamps to it.
	tl.Record(core.IntervalPoint{
		Rank: 0, Event: 1, OrigBegin: 8, OrigEnd: 14, EndDelay: 6,
		Wait: 100, State: core.WaitLateSender, PeerRank: 2, PeerEvent: 5,
	})
	evs := tl.Ranks[0]
	if evs[1].Start != 10 {
		t.Errorf("start not clamped to previous end: %g", evs[1].Start)
	}
	if evs[1].WaitStart != evs[1].Start {
		t.Errorf("oversized wait not clamped to interval start: %g", evs[1].WaitStart)
	}
	if evs[1].End != 20 {
		t.Errorf("end perturbed by clamping: %g", evs[1].End)
	}
	w := tl.Waits[0]
	if w.LateSender != 100 || w.Total != 100 || w.LateReceiver != 0 || w.Collective != 0 {
		t.Errorf("wait buckets = %+v", w)
	}
	if len(tl.Flows) != 1 || tl.Flows[0] != (Flow{SrcRank: 2, SrcEvent: 5, DstRank: 0, DstEvent: 1}) {
		t.Errorf("flows = %+v", tl.Flows)
	}
}

func TestParseRanks(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		want []int
		err  bool
	}{
		{"", 8, nil, false},
		{"all", 8, nil, false},
		{"3", 8, []int{3}, false},
		{"0-2,5", 8, []int{0, 1, 2, 5}, false},
		{"5,0-2,1", 8, []int{0, 1, 2, 5}, false},
		{"2-0", 8, nil, true},
		{"7", 4, nil, true},
		{"x", 8, nil, true},
		{"1-x", 8, nil, true},
	}
	for _, tc := range cases {
		got, err := ParseRanks(tc.spec, tc.n)
		if tc.err != (err != nil) {
			t.Errorf("ParseRanks(%q, %d) err = %v", tc.spec, tc.n, err)
			continue
		}
		if !tc.err && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseRanks(%q, %d) = %v, want %v", tc.spec, tc.n, got, tc.want)
		}
	}
}

func TestWindowMetrics(t *testing.T) {
	tl := New(2)
	// Rank 0: pure compute on [0, 10] (init is not a communication
	// kind and carries no wait).
	tl.Record(core.IntervalPoint{Rank: 0, Kind: uint8(trace.KindInit), OrigEnd: 10, PeerRank: -1})
	// Rank 1: computes [0, 5], then waits [5, 10] on a late sender.
	tl.Record(core.IntervalPoint{Rank: 1, Kind: uint8(trace.KindInit), OrigEnd: 5, PeerRank: -1})
	tl.Record(core.IntervalPoint{
		Rank: 1, Event: 1, Kind: uint8(trace.KindRecv), OrigBegin: 5, OrigEnd: 5,
		EndDelay: 5, Wait: 5, State: core.WaitLateSender, PeerRank: -1,
	})
	wins, w0, wsize, err := tl.WindowMetrics(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || w0 != 0 || wsize != 10 {
		t.Fatalf("windows = %d, origin %g, width %g", len(wins), w0, wsize)
	}
	m := wins[0]
	// compute: rank 0 contributes 10, rank 1 contributes 5 → PE 15/20.
	if math.Abs(m.ParallelEfficiency-0.75) > 1e-12 {
		t.Errorf("parallel efficiency = %g, want 0.75", m.ParallelEfficiency)
	}
	// communication: rank 1's 5-cycle wait → 5/20.
	if math.Abs(m.CommFraction-0.25) > 1e-12 {
		t.Errorf("comm fraction = %g, want 0.25", m.CommFraction)
	}
	// load balance: mean(10,5)/max(10,5) = 0.75.
	if math.Abs(m.LoadBalance-0.75) > 1e-12 {
		t.Errorf("load balance = %g, want 0.75", m.LoadBalance)
	}
}

func TestWindowMetricsEmptyTimeline(t *testing.T) {
	tl := New(0)
	wins, _, _, err := tl.WindowMetrics(0)
	if err != nil || wins != nil {
		t.Fatalf("empty timeline: wins=%v err=%v", wins, err)
	}
}

func TestWindowMetricsTooManyWindows(t *testing.T) {
	tl := New(1)
	tl.Record(core.IntervalPoint{Rank: 0, OrigEnd: 1 << 40, PeerRank: -1})
	if _, _, _, err := tl.WindowMetrics(0.0001); err == nil {
		t.Fatal("absurd window count accepted")
	}
}

func TestWriteJSONDeterministicAndValid(t *testing.T) {
	tl, res := replayTimeline(t, noisyModel())
	opts := ExportOptions{Window: 500, CritPath: res.CritPath}
	var a, b bytes.Buffer
	if err := tl.WriteJSON(&a, opts); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteJSON(&b, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export is not deterministic")
	}
	if msgs := Validate(a.Bytes()); len(msgs) > 0 {
		t.Fatalf("export fails its own validator:\n%s", strings.Join(msgs, "\n"))
	}
	s := a.String()
	for _, want := range []string{`"cat":"dataflow"`, `"cat":"critpath"`, `"parallel_efficiency"`, `"comm_fraction"`, `"load_balance"`} {
		if !strings.Contains(s, want) {
			t.Errorf("export missing %s", want)
		}
	}
}

func TestWriteJSONRankFilter(t *testing.T) {
	tl, res := replayTimeline(t, noisyModel())
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf, ExportOptions{Ranks: []int{1, 2}, CritPath: res.CritPath}); err != nil {
		t.Fatal(err)
	}
	if msgs := Validate(buf.Bytes()); len(msgs) > 0 {
		t.Fatalf("filtered export invalid:\n%s", strings.Join(msgs, "\n"))
	}
	s := buf.String()
	if strings.Contains(s, `"rank 0"`) || strings.Contains(s, `"rank 3"`) {
		t.Fatal("filtered-out rank exported")
	}
	if !strings.Contains(s, `"rank 1"`) || !strings.Contains(s, `"rank 2"`) {
		t.Fatal("selected ranks missing")
	}
}

func TestWriteSpansJSON(t *testing.T) {
	sb := obsv.NewSpanBuffer(16)
	// Two overlapping spans need two lanes; the third reuses lane 0.
	sb.Record("compile", 0, 1000)
	sb.Record("replay", 500, 2000)
	sb.Record("replay", 2500, 3000)
	var buf bytes.Buffer
	if err := WriteSpansJSON(&buf, sb.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if msgs := Validate(buf.Bytes()); len(msgs) > 0 {
		t.Fatalf("span export invalid:\n%s", strings.Join(msgs, "\n"))
	}
	s := buf.String()
	if !strings.Contains(s, `"lane 0"`) || !strings.Contains(s, `"lane 1"`) {
		t.Fatalf("greedy lane packing wrong:\n%s", s)
	}
	if strings.Contains(s, `"lane 2"`) {
		t.Fatalf("third span did not reuse a free lane:\n%s", s)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"garbage", `not json`, "does not parse"},
		{"no events", `{}`, "no traceEvents"},
		{"unbalanced E", `{"traceEvents":[{"ph":"E","ts":1,"pid":1,"tid":0}]}`, "no open B"},
		{"unclosed B", `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":0}]}`, "unclosed"},
		{"backward slice", `{"traceEvents":[{"name":"x","ph":"B","ts":5,"pid":1,"tid":0},{"ph":"E","ts":1,"pid":1,"tid":0}]}`, "before it begins"},
		{"begin regression", `{"traceEvents":[{"name":"x","ph":"B","ts":5,"pid":1,"tid":0},{"ph":"E","ts":6,"pid":1,"tid":0},{"name":"y","ph":"B","ts":2,"pid":1,"tid":0},{"ph":"E","ts":9,"pid":1,"tid":0}]}`, "before previous begin"},
		{"orphan flow", `{"traceEvents":[{"name":"m","cat":"d","ph":"f","ts":1,"pid":1,"tid":0,"id":1}]}`, "no start"},
		{"unfinished flow", `{"traceEvents":[{"name":"m","cat":"d","ph":"s","ts":1,"pid":1,"tid":0,"id":1}]}`, "never finishes"},
		{"backward flow", `{"traceEvents":[{"name":"m","cat":"d","ph":"s","ts":5,"pid":1,"tid":0,"id":1},{"name":"m","cat":"d","ph":"f","ts":1,"pid":1,"tid":1,"id":1}]}`, "before it starts"},
		{"bad counter", `{"traceEvents":[{"name":"c","ph":"C","ts":1,"pid":1}]}`, "no numeric args"},
		{"unknown phase", `{"traceEvents":[{"ph":"Q","ts":1,"pid":1}]}`, "unknown phase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msgs := Validate([]byte(tc.doc))
			if len(msgs) == 0 {
				t.Fatal("violation not detected")
			}
			found := false
			for _, m := range msgs {
				if strings.Contains(m, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no message mentions %q:\n%s", tc.want, strings.Join(msgs, "\n"))
			}
		})
	}
	good := `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":0},{"ph":"E","ts":2,"pid":1,"tid":0}]}`
	if msgs := Validate([]byte(good)); len(msgs) > 0 {
		t.Fatalf("clean document rejected: %v", msgs)
	}
}

// TestStreamingAndCompiledAgree pins engine independence at the
// package level: the same model replayed through Analyze and
// ReplayCompiled must produce identical timelines, not just identical
// Results.
func TestStreamingAndCompiledAgree(t *testing.T) {
	tl, res := replayTimeline(t, noisyModel())

	dir := t.TempDir()
	prog, err := workloads.BuildByName("tokenring", workloads.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.Run(mpi.Config{
		Machine:  machine.Config{NRanks: 4, Seed: 1},
		TraceDir: dir,
	}, prog); err != nil {
		t.Fatal(err)
	}
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck
	stl := New(4)
	sres, err := core.Analyze(set, noisyModel(), core.Options{
		RecordCritPath: true,
		Interval:       stl.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad := stl.Check(sres); len(bad) > 0 {
		t.Fatalf("streaming decomposition violated:\n%s", strings.Join(bad, "\n"))
	}
	var a, b bytes.Buffer
	if err := tl.WriteJSON(&a, ExportOptions{CritPath: res.CritPath}); err != nil {
		t.Fatal(err)
	}
	if err := stl.WriteJSON(&b, ExportOptions{CritPath: sres.CritPath}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("engines disagree on the exported timeline (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestParallelEngineTimelineAgrees extends the engine-independence pin
// to the wavefront-slab parallel replayer: the interval stream is
// emitted in the serial finalize pass, so the exported timeline must
// be byte-identical to the compiled engine's for any worker count.
func TestParallelEngineTimelineAgrees(t *testing.T) {
	tl, res := replayTimeline(t, noisyModel())

	dir := t.TempDir()
	prog, err := workloads.BuildByName("tokenring", workloads.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.Run(mpi.Config{
		Machine:  machine.Config{NRanks: 4, Seed: 1},
		TraceDir: dir,
	}, prog); err != nil {
		t.Fatal(err)
	}
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck
	c, err := core.Compile(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ptl := New(c.NRanks())
	pres, err := core.ReplayParallel(c, noisyModel(), core.Options{
		RecordCritPath: true,
		Interval:       ptl.Record,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bad := ptl.Check(pres); len(bad) > 0 {
		t.Fatalf("parallel decomposition violated:\n%s", strings.Join(bad, "\n"))
	}
	var a, b bytes.Buffer
	if err := tl.WriteJSON(&a, ExportOptions{CritPath: res.CritPath}); err != nil {
		t.Fatal(err)
	}
	if err := ptl.WriteJSON(&b, ExportOptions{CritPath: pres.CritPath}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("parallel engine disagrees on the exported timeline (%d vs %d bytes)", a.Len(), b.Len())
	}
}
