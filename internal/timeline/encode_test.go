package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/obsv"
)

// refEvent is the reference encoder's trace event: encoding/json
// marshals it field by field in struct order.
type refEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type refWriter struct {
	buf   bytes.Buffer
	first bool
	err   error
}

func (rw *refWriter) emit(e refEvent) {
	if rw.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		rw.err = err
		return
	}
	if !rw.first {
		rw.buf.WriteString(",\n")
	}
	rw.first = false
	rw.buf.Write(b)
}

func (rw *refWriter) doc() ([]byte, error) {
	if rw.err != nil {
		return nil, rw.err
	}
	return []byte("{\"traceEvents\":[\n" + rw.buf.String() + "\n]}\n"), nil
}

// referenceJSON is WriteJSON built on encoding/json, one json.Marshal
// per event and a map per args object, with flows ordered by a full
// sort. WriteJSON must reproduce its bytes.
func referenceJSON(t *Timeline, opts ExportOptions) ([]byte, error) {
	rw := &refWriter{first: true}
	exported := map[int]bool{}
	rw.emit(refEvent{Name: "process_name", Ph: "M", Pid: pidRanks, Args: map[string]any{"name": "simulated ranks"}})
	for r, evs := range t.Ranks {
		if (opts.Ranks != nil && !containsInt(opts.Ranks, r)) || len(evs) == 0 {
			continue
		}
		exported[r] = true
		rw.emit(refEvent{Name: "thread_name", Ph: "M", Pid: pidRanks, Tid: r, Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}})
		rw.emit(refEvent{Name: "thread_sort_index", Ph: "M", Pid: pidRanks, Tid: r, Args: map[string]any{"sort_index": r}})
	}
	for r, evs := range t.Ranks {
		if !exported[r] {
			continue
		}
		for i := range evs {
			e := &evs[i]
			if i > 0 && e.Start > evs[i-1].End {
				rw.emit(refEvent{Name: "compute", Cat: catCompute, Ph: "B", Ts: evs[i-1].End, Pid: pidRanks, Tid: r})
				rw.emit(refEvent{Ph: "E", Ts: e.Start, Pid: pidRanks, Tid: r})
			}
			if e.WaitStart > e.Start {
				rw.emit(refEvent{Name: e.Kind.String(), Cat: catOp, Ph: "B", Ts: e.Start, Pid: pidRanks, Tid: r})
				rw.emit(refEvent{Ph: "E", Ts: e.WaitStart, Pid: pidRanks, Tid: r})
			}
			if e.End > e.WaitStart {
				rw.emit(refEvent{Name: "wait:" + e.State.String(), Cat: catWait, Ph: "B", Ts: e.WaitStart, Pid: pidRanks, Tid: r})
				rw.emit(refEvent{Ph: "E", Ts: e.End, Pid: pidRanks, Tid: r})
			}
		}
	}
	flows := append([]Flow(nil), t.Flows...)
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].DstRank != flows[j].DstRank {
			return flows[i].DstRank < flows[j].DstRank
		}
		return flows[i].DstEvent < flows[j].DstEvent
	})
	var id int64
	for _, f := range flows {
		if !exported[f.SrcRank] || !exported[f.DstRank] {
			continue
		}
		id++
		rw.emit(refEvent{Name: "msg", Cat: catDataflow, Ph: "s", Ts: t.Ranks[f.SrcRank][f.SrcEvent].Start, Pid: pidRanks, Tid: f.SrcRank, ID: id})
		rw.emit(refEvent{Name: "msg", Cat: catDataflow, Ph: "f", Ts: t.Ranks[f.DstRank][f.DstEvent].End, Pid: pidRanks, Tid: f.DstRank, ID: id, BP: "e"})
	}
	if cp := opts.CritPath; cp != nil {
		var cid int64
		for i := 1; i < len(cp.Steps); i++ {
			a, b := cp.Steps[i-1].Node, cp.Steps[i].Node
			if a.Rank == b.Rank || !exported[a.Rank] || !exported[b.Rank] || !t.hasEvent(a.Rank, a.Event) || !t.hasEvent(b.Rank, b.Event) {
				continue
			}
			cid++
			sTs, fTs := t.nodeTime(a), t.nodeTime(b)
			fTs = math.Max(fTs, sTs)
			rw.emit(refEvent{Name: "critpath", Cat: catCritpath, Ph: "s", Ts: sTs, Pid: pidRanks, Tid: a.Rank, ID: cid})
			rw.emit(refEvent{Name: "critpath", Cat: catCritpath, Ph: "f", Ts: fTs, Pid: pidRanks, Tid: b.Rank, ID: cid, BP: "e"})
		}
	}
	wins, w0, wsize, err := t.WindowMetrics(opts.Window)
	if err != nil {
		return nil, err
	}
	for i, m := range wins {
		ts := w0 + float64(i)*wsize
		rw.emit(refEvent{Name: "parallel_efficiency", Ph: "C", Ts: ts, Pid: pidRanks, Args: map[string]any{"value": m.ParallelEfficiency}})
		rw.emit(refEvent{Name: "comm_fraction", Ph: "C", Ts: ts, Pid: pidRanks, Args: map[string]any{"value": m.CommFraction}})
		rw.emit(refEvent{Name: "load_balance", Ph: "C", Ts: ts, Pid: pidRanks, Args: map[string]any{"value": m.LoadBalance}})
	}
	if opts.Spans != nil {
		referenceSpans(rw, opts.Spans)
	}
	return rw.doc()
}

// referenceSpans is emitSpans on the reference encoder.
func referenceSpans(rw *refWriter, spans []obsv.Span) {
	ordered := append([]obsv.Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		if ordered[i].End != ordered[j].End {
			return ordered[i].End < ordered[j].End
		}
		return ordered[i].Name < ordered[j].Name
	})
	var laneEnd []int64
	lanes := make([]int, len(ordered))
	for i, s := range ordered {
		lane := len(laneEnd)
		for l, end := range laneEnd {
			if end <= s.Start {
				lane = l
				break
			}
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.End
		lanes[i] = lane
	}
	rw.emit(refEvent{Name: "process_name", Ph: "M", Pid: pidEngine, Args: map[string]any{"name": "engine"}})
	for l := range laneEnd {
		rw.emit(refEvent{Name: "thread_name", Ph: "M", Pid: pidEngine, Tid: l, Args: map[string]any{"name": fmt.Sprintf("lane %d", l)}})
		rw.emit(refEvent{Name: "thread_sort_index", Ph: "M", Pid: pidEngine, Tid: l, Args: map[string]any{"sort_index": l}})
	}
	for i, s := range ordered {
		start := float64(s.Start) / 1e3
		end := math.Max(float64(s.End)/1e3, start)
		rw.emit(refEvent{Name: s.Name, Cat: "engine", Ph: "B", Ts: start, Pid: pidEngine, Tid: lanes[i]})
		rw.emit(refEvent{Ph: "E", Ts: end, Pid: pidEngine, Tid: lanes[i]})
	}
}

func TestAppendFloat(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, -1e-7, 9.99e-7, 1e-6, 1.5e-6,
		1e-300, 2.5e-10, 0.1, 0.3, 1.0 / 3, 2.0 / 3, 0.75, 1, -1,
		123456.5, 987654321.125, 1e15, 1e15 + 0.5, 1 << 53, 1<<53 + 2, 1e20, 99999999999999999999.0,
		1e21, -1e21, 1.2345e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 4096 * 0.01, 17290.000000000004,
	}
	// Cycle counts as the timeline makes them: integral traced times
	// plus fractional delays, small and large.
	rng := dist.NewRNG(1)
	for i := 0; i < 2000; i++ {
		base := float64(rng.Uint64() >> (i % 64))
		delay := dist.Exponential{MeanValue: 500}.Sample(rng)
		cases = append(cases, base, base+delay, delay, -delay, delay/1e9, base*1e9)
	}
	for _, f := range cases {
		got, err := appendFloat(nil, f)
		if err != nil {
			t.Fatalf("appendFloat(%v): %v", f, err)
		}
		want, _ := json.Marshal(f)
		if !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, encoding/json gives %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendFloat(nil, f); err == nil {
			t.Errorf("appendFloat(%v) accepted a non-finite value", f)
		}
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json accepts %v; the reference changed", f)
		}
	}
}

func TestAppendString(t *testing.T) {
	cases := []string{
		"", "compute", "wait:late-sender", "replay_slabs", "a b~c",
		"<script>", "a&b", "x>y", `say "hi"`, `back\\slash`, "/slash",
		"tab\there", "nl\n", "cr\r", "bell\a", "bs\b", "ff\f", "nul\x00", "esc\x1b", "del\x7f",
		"héllo", "日本語", "emoji 🙂", "bad\xff utf8", "trunc\xe2\x80", "\xc0\xaf",
		"line sep", "para sep", "‧‪",
	}
	for c := 0; c < 0x100; c++ {
		cases = append(cases, string([]byte{'k', byte(c)}))
	}
	for _, s := range cases {
		got := appendString([]byte("prefix"), s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("appendString(%q) = %s, encoding/json gives %s", s, got[len("prefix"):], want)
		}
	}
}

// TestWriteJSONMatchesReference pins the append encoder to the
// encoding/json reference byte for byte, on documents that cover every
// event shape: fractional and integral timestamps, message and
// critical-path flows, a rank filter, and engine spans whose names
// need escaping.
func TestWriteJSONMatchesReference(t *testing.T) {
	noisy, noisyRes := replayTimeline(t, noisyModel())
	constant, constantRes := replayTimeline(t, &core.Model{OSNoise: dist.Constant{C: 40}, MsgLatency: dist.Constant{C: 150}})
	wave, waveRes := appTimeline(t, "wavefront", machine.Config{NRanks: 8, Seed: 3, Noise: dist.Exponential{MeanValue: 100}}, 4, benchModel())
	spans := []obsv.Span{
		{Name: "compile", Start: 0, End: 1500},
		{Name: "replay <lane \"0\">", Start: 700, End: 2500},
		{Name: "tab\tand\\back & ünïcode ", Start: 2600, End: 2600},
		{Name: "bad\xffutf8", Start: 2000, End: 1999},
	}
	cases := []struct {
		name string
		tl   *Timeline
		opts ExportOptions
	}{
		{"noisy", noisy, ExportOptions{Window: 500, CritPath: noisyRes.CritPath}},
		{"noisy default window", noisy, ExportOptions{CritPath: noisyRes.CritPath}},
		{"constant", constant, ExportOptions{CritPath: constantRes.CritPath}},
		{"rank filter", noisy, ExportOptions{Ranks: []int{1, 2}, CritPath: noisyRes.CritPath}},
		{"wavefront", wave, ExportOptions{Window: 1000, CritPath: waveRes.CritPath}},
		{"wavefront filter", wave, ExportOptions{Ranks: []int{0, 3, 7}, CritPath: waveRes.CritPath}},
		{"spans", noisy, ExportOptions{Window: 2000, Spans: spans}},
		{"empty", New(0), ExportOptions{Spans: spans[:0]}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := referenceJSON(tc.tl, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tc.tl.WriteJSON(&got, tc.opts); err != nil {
				t.Fatal(err)
			}
			assertSameBytes(t, got.Bytes(), want)
			if msgs := Validate(got.Bytes()); len(msgs) > 0 {
				t.Fatalf("export fails its own validator:\n%s", strings.Join(msgs, "\n"))
			}
		})
	}

	rw := &refWriter{first: true}
	referenceSpans(rw, spans)
	want, err := rw.doc()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteSpansJSON(&got, spans); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got.Bytes(), want)
}

// TestWriteJSONFlowOrder checks that flows recorded out of destination
// order (possible only in a hand-built timeline) still export sorted.
func TestWriteJSONFlowOrder(t *testing.T) {
	tl, res := replayTimeline(t, noisyModel())
	for i, j := 0, len(tl.Flows)-1; i < j; i, j = i+1, j-1 {
		tl.Flows[i], tl.Flows[j] = tl.Flows[j], tl.Flows[i]
	}
	tl.Flows = append(tl.Flows, Flow{SrcRank: 0, DstRank: 99}, Flow{SrcRank: -1, DstRank: 1})
	opts := ExportOptions{CritPath: res.CritPath}
	want, err := referenceJSON(tl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tl.WriteJSON(&got, opts); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got.Bytes(), want)
}

func assertSameBytes(t *testing.T, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d differs from the encoding/json reference:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d lines, encoding/json reference has %d", len(g), len(w))
}

// TestWriteJSONNonFinite: a NaN or infinite timestamp or counter value
// has no JSON encoding, so the export fails, as encoding/json does.
func TestWriteJSONNonFinite(t *testing.T) {
	build := func(mut func(tl *Timeline)) *Timeline {
		tl, _ := replayTimeline(t, noisyModel())
		mut(tl)
		return tl
	}
	cases := []struct {
		name string
		tl   *Timeline
	}{
		{"+Inf end", build(func(tl *Timeline) {
			evs := tl.Ranks[1]
			evs[len(evs)-1].End = math.Inf(1)
		})},
		{"-Inf start", build(func(tl *Timeline) { tl.Ranks[0][0].Start = math.Inf(-1) })},
		{"NaN flow source", build(func(tl *Timeline) {
			f := tl.Flows[0]
			tl.Ranks[f.SrcRank][f.SrcEvent].Start = math.NaN()
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := referenceJSON(tc.tl, ExportOptions{}); err == nil {
				t.Fatal("the encoding/json reference accepts this timeline; the case tests nothing")
			}
			err := tc.tl.WriteJSON(io.Discard, ExportOptions{})
			if err == nil || !strings.Contains(err.Error(), "unsupported value") {
				t.Fatalf("WriteJSON error = %v, want an unsupported-value error", err)
			}
		})
	}

	var buf bytes.Buffer
	en := newEncoder(&buf)
	en.counter("load_balance", 0, math.NaN())
	en.counter("load_balance", 1, 0.5)
	if err := en.finish(); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN counter value: finish error = %v", err)
	}
	if strings.Contains(buf.String(), "load_balance") {
		t.Fatalf("events written after the error: %q", buf.String())
	}
}

// benchModel is the repository benchmark's exponential model.
func benchModel() *core.Model {
	return &core.Model{
		Seed:       1,
		OSNoise:    dist.Exponential{MeanValue: 200},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.01},
	}
}

// wavefrontTimeline is the benchmark's timeline-export shape at the
// given scale: wavefront over a noisy machine, replayed under the
// benchmark's model.
func wavefrontTimeline(tb testing.TB, ranks, iters int) (*Timeline, *core.Result) {
	return appTimeline(tb, "wavefront", machine.Config{NRanks: ranks, Seed: 1, Noise: dist.Exponential{MeanValue: 100}}, iters, benchModel())
}

// countEvents returns the number of trace events in an export: one
// per line between the document's opening and closing lines.
func countEvents(doc []byte) int {
	return bytes.Count(doc, []byte("\n")) - 2
}

// TestWriteJSONAllocs bounds the export's allocations: a fixed handful
// per document (buffers, the flow order, the window metrics), none per
// event.
func TestWriteJSONAllocs(t *testing.T) {
	tl, res := wavefrontTimeline(t, 16, 5)
	opts := ExportOptions{CritPath: res.CritPath}
	var doc bytes.Buffer
	if err := tl.WriteJSON(&doc, opts); err != nil {
		t.Fatal(err)
	}
	events := countEvents(doc.Bytes())
	allocs := testing.AllocsPerRun(5, func() {
		if err := tl.WriteJSON(io.Discard, opts); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(events); per > 0.01 {
		t.Fatalf("%.0f allocations for %d events: %.4f per event, want <= 0.01", allocs, events, per)
	}
}

// BenchmarkWriteJSON exports the benchmark's timeline-export shape,
// wavefront at 64 ranks × 20 iterations (about 7.5 MB of JSON).
func BenchmarkWriteJSON(b *testing.B) {
	tl, res := wavefrontTimeline(b, 64, 20)
	opts := ExportOptions{CritPath: res.CritPath}
	var doc bytes.Buffer
	if err := tl.WriteJSON(&doc, opts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tl.WriteJSON(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}
