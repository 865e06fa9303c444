package timeline

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"mpgraph/internal/core"
	"mpgraph/internal/obsv"
)

// Chrome trace-event / Perfetto export. The output is the JSON object
// format ({"traceEvents": [...]}) with duration slices as balanced B/E
// pairs, message and critical-path edges as s/f flow events, windowed
// metrics as C counter tracks, and (optionally) engine self-spans as a
// second process group. Events are emitted one per line in a fixed
// order derived only from the timeline's content, so the same replay
// always produces byte-identical output — the golden test pins this
// across the streaming, compiled, batched, and wavefront-slab parallel
// engines (the parallel engine's replay_slabs/replay_finalize phase
// spans ride the same generic engine-span process).
//
// Timestamps on the simulated-rank process (pid 1) are in simulated
// cycles, not microseconds; viewers render them fine, the unit label is
// just nominal. Engine self-spans (pid 2) are wall-clock microseconds.

// Process/track layout of the exported trace.
const (
	pidRanks  = 1 // simulated ranks: tid = rank
	pidEngine = 2 // engine self-spans: tid = concurrency lane

	catCompute  = "compute"
	catOp       = "op"
	catWait     = "wait"
	catDataflow = "dataflow"
	catCritpath = "critpath"
)

// maxWindows bounds the counter sampling so a tiny -timeline-window on
// a long trace cannot explode the export.
const maxWindows = 1_000_000

// ExportOptions tunes WriteJSON.
type ExportOptions struct {
	// Window is the counter-sampling window in cycles; when not
	// positive the span is split into about 60 windows.
	Window float64
	// Ranks restricts which tracks are exported (nil = all). Counter
	// tracks always aggregate over every rank regardless.
	Ranks []int
	// CritPath, when non-nil, adds flow arrows along the recorded
	// critical path (cross-rank steps only; same-rank steps are
	// contiguous on the track already).
	CritPath *core.CriticalPath
	// Spans, when non-nil, adds the engine self-span process. Span
	// times are wall-clock, so deterministic output requires leaving
	// this nil.
	Spans []obsv.Span
}

// WriteJSON exports the timeline as Chrome trace-event JSON. See the
// package comment for layout and doc/TIMELINE.md for how to open it.
func (t *Timeline) WriteJSON(w io.Writer, opts ExportOptions) error {
	en := newEncoder(w)

	sel := opts.Ranks
	exported := make([]bool, len(t.Ranks))
	isExported := func(r int) bool { return r >= 0 && r < len(exported) && exported[r] }
	en.process(pidRanks, "simulated ranks")
	for r, evs := range t.Ranks {
		if sel != nil && !containsInt(sel, r) {
			continue
		}
		if len(evs) == 0 {
			continue
		}
		exported[r] = true
		en.thread(pidRanks, r, "rank ")
	}

	// Per-rank slices: compute gap, execution, wait — balanced B/E
	// pairs in track order (segments tile, so pairs are ts-ordered).
	for r, evs := range t.Ranks {
		if !exported[r] {
			continue
		}
		for i := range evs {
			e := &evs[i]
			if i > 0 && e.Start > evs[i-1].End {
				en.slice("compute", catCompute, pidRanks, r, evs[i-1].End, e.Start)
			}
			if e.WaitStart > e.Start {
				en.slice(e.Kind.String(), catOp, pidRanks, r, e.Start, e.WaitStart)
			}
			if e.End > e.WaitStart {
				en.slice(waitName(e.State), catWait, pidRanks, r, e.WaitStart, e.End)
			}
		}
	}

	// Message flows in destination order (unique per completion), so
	// the order does not depend on cross-rank arrival interleaving.
	var id int64
	for _, fi := range t.flowOrder() {
		f := &t.Flows[fi]
		if !isExported(f.SrcRank) || !isExported(f.DstRank) {
			continue
		}
		id++
		en.flow("msg", catDataflow, id,
			t.Ranks[f.SrcRank][f.SrcEvent].Start, f.SrcRank,
			t.Ranks[f.DstRank][f.DstEvent].End, f.DstRank)
	}

	// Critical-path flows: one arrow per cross-rank step pair.
	if cp := opts.CritPath; cp != nil {
		var cid int64
		for i := 1; i < len(cp.Steps); i++ {
			a, b := cp.Steps[i-1], cp.Steps[i]
			if a.Node.Rank == b.Node.Rank {
				continue
			}
			if !isExported(a.Node.Rank) || !isExported(b.Node.Rank) {
				continue
			}
			if !t.hasEvent(a.Node.Rank, a.Node.Event) || !t.hasEvent(b.Node.Rank, b.Node.Event) {
				continue
			}
			cid++
			// The path is the argmax chain in delay space, so a step's
			// predecessor can sit later on the absolute clock than the
			// step itself (its traced time was earlier, its delay larger).
			// Clamp the arrowhead forward: trace-event flows must not
			// travel backward in time (Validate enforces this), and the
			// arrow still lands on the correct track and event.
			sTs := t.nodeTime(a.Node)
			fTs := t.nodeTime(b.Node)
			if fTs < sTs {
				fTs = sTs
			}
			en.flow("critpath", catCritpath, cid, sTs, a.Node.Rank, fTs, b.Node.Rank)
		}
	}

	// Windowed metric counters, aggregated over every rank.
	wins, w0, wsize, err := t.WindowMetrics(opts.Window)
	if err != nil {
		return err
	}
	for i, m := range wins {
		ts := w0 + float64(i)*wsize
		en.counter("parallel_efficiency", ts, m.ParallelEfficiency)
		en.counter("comm_fraction", ts, m.CommFraction)
		en.counter("load_balance", ts, m.LoadBalance)
	}

	if opts.Spans != nil {
		emitSpans(en, opts.Spans)
	}
	return en.finish()
}

// flowOrder returns the indices of t.Flows sorted by destination rank,
// then destination event. Record appends each rank's flows in event
// order, so a stable partition by rank already yields that order; a
// bucket out of order (a hand-built timeline) is sorted explicitly.
// Flows whose destination rank is off the timeline are dropped: they
// are never exported.
func (t *Timeline) flowOrder() []int32 {
	next := make([]int, len(t.Ranks)+1) // bucket starts, then fill cursors
	for i := range t.Flows {
		if r := t.Flows[i].DstRank; r >= 0 && r < len(t.Ranks) {
			next[r+1]++
		}
	}
	for r := 1; r < len(next); r++ {
		next[r] += next[r-1]
	}
	order := make([]int32, next[len(next)-1])
	for i := range t.Flows {
		if r := t.Flows[i].DstRank; r >= 0 && r < len(t.Ranks) {
			order[next[r]] = int32(i)
			next[r]++
		}
	}
	// next[r] is now the end of bucket r and the start of bucket r+1.
	byEvent := func(a, b int32) int { return cmp.Compare(t.Flows[a].DstEvent, t.Flows[b].DstEvent) }
	lo := 0
	for r := range t.Ranks {
		bucket := order[lo:next[r]]
		lo = next[r]
		if !slices.IsSortedFunc(bucket, byEvent) {
			slices.SortFunc(bucket, byEvent)
		}
	}
	return order
}

// nodeTime is the track time of a critical-path node: the event's
// perturbed start for a start subevent, its end for an end subevent.
func (t *Timeline) nodeTime(n core.NodeRef) float64 {
	e := &t.Ranks[n.Rank][n.Event]
	if n.End {
		return e.End
	}
	return e.Start
}

// WindowMetrics splits the timeline's span into fixed windows and
// computes the standard time-resolved metrics per window over all
// ranks: parallel efficiency (compute time / total rank-time),
// communication fraction (communication + wait time / total rank-time)
// and load balance (mean/max of per-rank compute time; 1 = balanced).
// window <= 0 splits the span into about 60 windows. Returns the
// windows plus the grid origin and width.
func (t *Timeline) WindowMetrics(window float64) ([]WindowMetric, float64, float64, error) {
	lo, hi, ok := t.Span(nil)
	if !ok || !(hi > lo) {
		return nil, 0, 0, nil
	}
	if window <= 0 {
		window = math.Ceil((hi - lo) / 60)
		if window < 1 {
			window = 1
		}
	}
	nwin := int(math.Ceil((hi - lo) / window))
	if nwin < 1 {
		nwin = 1
	}
	if nwin > maxWindows {
		return nil, 0, 0, fmt.Errorf("timeline: window %g over span %g yields %d windows (max %d)", window, hi-lo, nwin, maxWindows)
	}
	n := len(t.Ranks)
	compute := make([]float64, nwin*n) // window-major per-rank compute time
	comm := make([]float64, nwin)      // communication + wait, summed over ranks
	accumulate := func(rank int, segLo, segHi float64, isComm bool) {
		if !(segHi > segLo) {
			return
		}
		first := int((segLo - lo) / window)
		if first < 0 {
			first = 0
		}
		for wi := first; wi < nwin; wi++ {
			wLo := lo + float64(wi)*window
			if !(wLo < segHi) {
				break
			}
			wHi := wLo + window
			ov := math.Min(segHi, wHi) - math.Max(segLo, wLo)
			if ov > 0 {
				if isComm {
					comm[wi] += ov
				} else {
					compute[wi*n+rank] += ov
				}
			}
		}
	}
	for r, evs := range t.Ranks {
		prevEnd := 0.0
		started := false
		for i := range evs {
			e := &evs[i]
			if started {
				accumulate(r, prevEnd, e.Start, false) // compute gap
			}
			isComm := e.Kind.IsPointToPoint() || e.Kind.IsCompletion() || e.Kind.IsCollective()
			accumulate(r, e.Start, e.WaitStart, isComm)
			accumulate(r, e.WaitStart, e.End, true) // waits always count as communication
			prevEnd = e.End
			started = true
		}
	}
	out := make([]WindowMetric, nwin)
	for wi := 0; wi < nwin; wi++ {
		var sum, max float64
		for r := 0; r < n; r++ {
			v := compute[wi*n+r]
			sum += v
			if v > max {
				max = v
			}
		}
		denom := float64(n) * window
		m := &out[wi]
		m.ParallelEfficiency = sum / denom
		m.CommFraction = comm[wi] / denom
		m.LoadBalance = 1.0
		if max > 0 {
			m.LoadBalance = sum / float64(n) / max
		}
	}
	return out, lo, window, nil
}

// WindowMetric is one counter window's aggregate.
type WindowMetric struct {
	ParallelEfficiency float64
	CommFraction       float64
	LoadBalance        float64
}

// emitSpans renders engine self-spans as a second process: spans are
// packed greedily onto concurrency lanes (a span goes to the first
// lane free at its start), one thread per lane, timestamps converted
// from wall-clock nanoseconds to microseconds.
func emitSpans(en *encoder, spans []obsv.Span) {
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
		lane := -1
		for l, end := range laneEnd {
			if end <= s.Start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.End
		lanes[i] = lane
	}
	en.process(pidEngine, "engine")
	for l := range laneEnd {
		en.thread(pidEngine, l, "lane ")
	}
	for i, s := range ordered {
		start := float64(s.Start) / 1e3
		end := float64(s.End) / 1e3
		if end < start {
			end = start
		}
		en.slice(s.Name, "engine", pidEngine, lanes[i], start, end)
	}
}

// WriteSpansJSON exports engine self-spans alone as a trace-event
// document — the -selftrace output of CLIs that have no simulated
// timeline to attach the spans to.
func WriteSpansJSON(w io.Writer, spans []obsv.Span) error {
	en := newEncoder(w)
	emitSpans(en, spans)
	return en.finish()
}

// waitNames holds the "wait:<state>" slice names, built once so the
// export does not concatenate a string per wait slice.
var waitNames = func() (names [core.WaitCollective + 1]string) {
	for s := range names {
		names[s] = "wait:" + core.WaitState(s).String()
	}
	return names
}()

func waitName(s core.WaitState) string {
	if int(s) < len(waitNames) {
		return waitNames[s]
	}
	return "wait:" + s.String()
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
