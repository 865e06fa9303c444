package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/trace"
)

// span is one timed call into a layer. Spans of one job share Job;
// Parent is the ID of the span that made the call, 0 for a job's root
// span. An aggregate span (Agg) stands for many short calls — every
// Reader.Next of a decode, every Interval hook call — summed into one
// duration and anchored at its parent's start; it has no position of
// its own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Agg    bool   `json:"aggregate,omitempty"`
	Calls  int64  `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of the traced run in memory. The benchmark's
// own files open and close every span, around the calls they make into
// each layer; the program under test is not instrumented. The untraced
// run passes a nil *tracer, on which startJob, begin, replay, openDir
// and interval do nothing beyond the call they wrap.
//
// Only replay is called from the fan-out's workers; everything else
// runs on the job's goroutine. Spans are appended under mu.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	job   int
	root  int // ID of the open job span; span IDs are index+1
	open  int // ID of the open layer span

	// Aggregates of the short calls made inside the open layer span.
	decodeNS, decodeCalls int64
	recordNS, recordCalls int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes the span with the given ID and returns it.
func (t *tracer) end(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	return *s
}

// startJob opens the root span of job number n.
func (t *tracer) startJob(n int) {
	if t == nil {
		return
	}
	t.job = n
	t.root = t.add(span{Job: n, Name: "job", Start: t.now()})
}

// endJob closes the root span and returns the job's wall time.
func (t *tracer) endJob() time.Duration {
	return time.Duration(t.end(t.root).dur())
}

// begin opens a layer span under the job root and returns the function
// that closes it. Decode and hook time accumulated while it is open
// become its aggregate children.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.decodeNS, t.decodeCalls, t.recordNS, t.recordCalls = 0, 0, 0, 0
	t.open = t.add(span{Parent: t.root, Job: t.job, Name: name, Start: t.now()})
	return func() {
		p := t.end(t.open)
		if t.decodeCalls > 0 {
			t.add(span{Parent: p.ID, Job: t.job, Name: "trace.decode", Start: p.Start, End: p.Start + t.decodeNS, Agg: true, Calls: t.decodeCalls})
		}
		if t.recordCalls > 0 {
			t.add(span{Parent: p.ID, Job: t.job, Name: "timeline.record", Start: p.Start, End: p.Start + t.recordNS, Agg: true, Calls: t.recordCalls})
		}
	}
}

// replay opens a core.replay span under the open layer span; it is safe
// to call from the fan-out's workers, which start after the layer span
// opened and finish before it closes.
func (t *tracer) replay() func() {
	if t == nil {
		return func() {}
	}
	start := t.now()
	return func() {
		t.add(span{Parent: t.open, Job: t.job, Name: "core.replay", Start: start, End: t.now()})
	}
}

// openDir is trace.OpenDir inside a trace.open span. When tracing, each
// rank's reader is wrapped so that the time spent in Reader.Next is
// summed, and the set is rebuilt around the wrappers with trace.NewSet.
func (t *tracer) openDir(dir string) (*trace.Set, func() error, error) {
	end := t.begin("trace.open")
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil || t == nil {
		end()
		return set, closeFn, err
	}
	readers := make([]trace.Reader, set.NRanks())
	for i := range readers {
		readers[i] = timedReader{set.Rank(i), t}
	}
	set, err = trace.NewSet(readers)
	end()
	if err != nil {
		closeFn() //nolint:errcheck // read-only files; the NewSet error is the one to report
		return nil, nil, err
	}
	return set, closeFn, nil
}

type timedReader struct {
	r trace.Reader
	t *tracer
}

func (r timedReader) Header() trace.Header { return r.r.Header() }

func (r timedReader) Next() (trace.Record, error) {
	start := r.t.now()
	rec, err := r.r.Next()
	r.t.decodeNS += r.t.now() - start
	r.t.decodeCalls++
	return rec, err
}

// interval wraps an Options.Interval hook so its time is summed.
func (t *tracer) interval(hook func(core.IntervalPoint)) func(core.IntervalPoint) {
	if t == nil {
		return hook
	}
	return func(p core.IntervalPoint) {
		start := t.now()
		hook(p)
		t.recordNS += t.now() - start
		t.recordCalls++
	}
}

// ledgerEpsilon is the share of job wall time by which the layer self
// times plus job.other may differ from it. Span times are integer
// nanoseconds from one monotonic clock, so any larger gap means layer
// spans overlapped or a child outlasted its parent.
const ledgerEpsilon = 1e-6

// ledger attributes every job's wall time to layers: each layer span's
// self time is its duration minus its children; concurrent core.replay
// spans count once for the time any of them ran (their union), and the
// rest of their fan-out span is the fan-out's own time; job.other is the
// job time outside every layer span. It returns the per-layer totals in
// nanoseconds, summed over jobs, and the number of jobs.
func ledger(spans []span) (map[string]int64, int, error) {
	kids := map[int][]span{}
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, r := range roots {
		var layers int64
		var main []span
		for _, m := range kids[r.ID] {
			main = append(main, m)
			var inner int64
			var conc []span
			for _, k := range kids[m.ID] {
				if k.Agg {
					out[k.Name] += k.dur()
					inner += k.dur()
				} else {
					conc = append(conc, k)
				}
			}
			if len(conc) > 0 {
				u := union(conc)
				out[conc[0].Name] += u
				inner += u
			}
			self := m.dur() - inner
			if self < 0 {
				return nil, 0, fmt.Errorf("ledger: job %d: %s children outlast it by %dns", r.Job, m.Name, -self)
			}
			out[m.Name] += self
			layers += m.dur()
		}
		other := r.dur() - union(main)
		out["job.other"] += other
		if gap := float64(layers + other - r.dur()); gap > ledgerEpsilon*float64(r.dur()) || -gap > ledgerEpsilon*float64(r.dur()) {
			return nil, 0, fmt.Errorf("ledger: job %d: layers %dns + other %dns != wall %dns", r.Job, layers, other, r.dur())
		}
		out["job.wall"] += r.dur()
	}
	return out, len(roots), nil
}

// union is the length of time covered by at least one of the spans.
func union(ss []span) int64 {
	ss = append([]span(nil), ss...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	hi := int64(math.MinInt64)
	for _, s := range ss {
		if s.End <= hi {
			continue
		}
		if s.Start > hi {
			total += s.End - s.Start
		} else {
			total += s.End - hi
		}
		hi = s.End
	}
	return total
}

// write saves the spans as JSON; the traced run calls it at exit.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
