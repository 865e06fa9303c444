// Package mpi is a deterministic simulated MPI-1 runtime. Programs are
// ordinary Go functions of a *Rank handle; each rank runs as a
// goroutine, but the runtime sequences them one at a time in virtual
// time order, so a run is a sequential, perfectly reproducible
// discrete simulation whose only "time" is the virtual cycle counter.
//
// The runtime plays the role of the MPI library plus cluster in the
// paper's pipeline: it executes workloads on a machine model
// (internal/machine) and, through its built-in PMPI-style tracing
// layer, emits the per-rank event traces (internal/trace) that the
// graph builder (internal/core) consumes. Blocking and nonblocking
// point-to-point semantics, collectives, and communicators follow the
// MPI-1 subset the paper treats in Section 3.
package mpi

import (
	"errors"
	"fmt"
	"sort"

	"mpgraph/internal/machine"
	"mpgraph/internal/trace"
)

// Program is the per-rank body of a parallel run. It is invoked once
// per rank with that rank's handle. Returning a non-nil error aborts
// the whole run.
type Program func(r *Rank) error

// Config configures a run.
type Config struct {
	// Machine is the platform model configuration. Machine.NRanks is
	// the world size.
	Machine machine.Config
	// TraceBufferCap is the PMPI buffer capacity in records (Section 4
	// of the paper: the memory-resident buffer dumped when full).
	// Default 4096.
	TraceBufferCap int
	// TraceMeta is added to every rank's trace header.
	TraceMeta map[string]string
	// TraceDir, when non-empty, writes per-rank trace files there
	// instead of collecting traces in memory.
	TraceDir string
	// DisableTracing turns the tracing layer off entirely (used by
	// microbenchmarks probing the raw machine).
	DisableTracing bool
}

// Stats aggregates counters over a run.
type Stats struct {
	// Messages is the number of point-to-point transfers completed.
	Messages int64
	// BytesSent is the total point-to-point payload volume.
	BytesSent int64
	// Collectives is the number of collective operations (counted once
	// per operation, not per rank).
	Collectives int64
	// Events is the total number of trace records emitted.
	Events int64
	// Steps is the number of scheduling steps: how often a rank parked
	// (at each MPI call and compute phase, and again when it blocks)
	// for the scheduler to pick the next rank.
	Steps int64
}

// Result describes a completed run.
type Result struct {
	// Traces holds the in-memory per-rank traces (nil when TraceDir or
	// DisableTracing was used).
	Traces []*trace.MemTrace
	// FinalGlobal is each rank's final global virtual time.
	FinalGlobal []int64
	// Makespan is the maximum of FinalGlobal.
	Makespan int64
	// Stats holds run counters.
	Stats Stats
}

// TraceSet wraps the in-memory traces as a trace.Set.
func (r *Result) TraceSet() (*trace.Set, error) {
	if r.Traces == nil {
		return nil, errors.New("mpi: run did not collect in-memory traces")
	}
	return trace.SetFromMem(r.Traces)
}

// errAborted unwinds a rank goroutine when the world aborts.
var errAborted = errors.New("mpi: run aborted")

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// proc is the runtime's per-rank bookkeeping.
type proc struct {
	rank   int
	now    int64 // global virtual time
	state  procState
	resume chan struct{} // capacity 1: the baton handed to this proc
	err    error
	why    blockReason // what a blocked proc waits for, for deadlock reports

	reqSeq uint64
	tracer *tracer
}

// World is one run in progress.
//
// Exactly one goroutine holds the baton at a time: Run's goroutine
// until the first dispatch and whenever the baton comes back on idle,
// otherwise the running rank. A parking rank picks its successor from
// the ready heap itself and hands the baton over on the successor's
// resume channel, so an MPI call costs one goroutine switch, and that
// channel operation orders every access to the world's state.
type World struct {
	cfg   Config
	m     *machine.Machine
	procs []*proc
	ready readyHeap     // the stateReady procs
	idle  chan struct{} // baton back to Run: nothing ready, a rank failed, or abort
	abort bool

	queues    map[chanKey]*matchQueue
	colls     map[collKey]*collSync
	wildSends map[wildKey][]*xfer
	wildRecvs map[wildKey][]*wildRecv

	nextCommID int32
	splitSeq   int64

	stats Stats
}

// Run executes program on a fresh world and returns the result.
func Run(cfg Config, program Program) (*Result, error) {
	if cfg.TraceBufferCap <= 0 {
		cfg.TraceBufferCap = 4096
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	n := m.NRanks()
	w := &World{
		cfg:        cfg,
		m:          m,
		procs:      make([]*proc, n),
		ready:      make(readyHeap, 0, n),
		idle:       make(chan struct{}, 1),
		queues:     make(map[chanKey]*matchQueue),
		colls:      make(map[collKey]*collSync),
		wildSends:  make(map[wildKey][]*xfer),
		wildRecvs:  make(map[wildKey][]*wildRecv),
		nextCommID: 1,
	}

	sinks := make([]recordSink, n)
	var closers []func() error
	for rank := 0; rank < n; rank++ {
		hdr := trace.Header{Rank: rank, NRanks: n, Meta: cfg.TraceMeta}
		switch {
		case cfg.DisableTracing:
			sinks[rank] = nopSink{}
		case cfg.TraceDir != "":
			fw, closeFn, err := trace.CreateFileWriter(cfg.TraceDir, hdr, cfg.TraceBufferCap)
			if err != nil {
				return nil, err
			}
			sinks[rank] = writerSink{w: fw}
			closers = append(closers, closeFn)
		default:
			sinks[rank] = &memSink{mem: &trace.MemTrace{Hdr: hdr}}
		}
	}

	for rank := 0; rank < n; rank++ {
		p := &proc{
			rank:   rank,
			state:  stateReady,
			resume: make(chan struct{}, 1),
		}
		p.tracer = &tracer{world: w, rank: rank, sink: sinks[rank]}
		w.procs[rank] = p
		w.ready.push(p)
	}
	for rank := 0; rank < n; rank++ {
		p := w.procs[rank]
		go w.runProc(p, program)
	}

	runErr := w.schedule()

	// Finalize traces.
	res := &Result{FinalGlobal: make([]int64, n), Stats: w.stats}
	for rank := 0; rank < n; rank++ {
		res.FinalGlobal[rank] = w.procs[rank].now
		if res.FinalGlobal[rank] > res.Makespan {
			res.Makespan = res.FinalGlobal[rank]
		}
	}
	for _, closeFn := range closers {
		if err := closeFn(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if !cfg.DisableTracing && cfg.TraceDir == "" {
		res.Traces = make([]*trace.MemTrace, n)
		for rank := 0; rank < n; rank++ {
			res.Traces[rank] = sinks[rank].(*memSink).mem
		}
	}
	return res, nil
}

// runProc is the rank goroutine body.
func (w *World) runProc(p *proc, program Program) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errAborted) {
				p.err = errAborted
			} else {
				p.err = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, r)
			}
		}
		p.state = stateDone
		w.handoff(p)
	}()
	<-p.resume // wait for the first schedule
	if w.abort {
		panic(errAborted)
	}
	rank := &Rank{world: w, proc: p}
	rank.init()
	if err := program(rank); err != nil {
		p.err = fmt.Errorf("mpi: rank %d: %w", p.rank, err)
		return
	}
	rank.finalize()
}

// schedule runs the world: it hands the baton to the earliest ready
// proc, waits for it to come back, and settles the run. The procs pass
// the baton among themselves in (now, rank) order; it returns here
// when all are done, a rank failed, or none can run (deadlock).
func (w *World) schedule() error {
	if next := w.ready.pop(); next != nil {
		next.state = stateRunning
		next.resume <- struct{}{}
		<-w.idle
	}
	if err := w.collectErrors(); err != nil {
		// A rank failed; stop everything.
		w.abortAll()
		return w.collectErrors()
	}
	if w.allDone() {
		return nil
	}
	// Deadlock: abort the stragglers.
	deadlockErr := w.deadlockError()
	w.abortAll()
	if err := w.collectErrors(); err != nil {
		return err
	}
	return deadlockErr
}

// handoff passes the baton on from p, which has just parked (ready,
// blocked or done): to the ready proc with the smallest (now, rank),
// or back to Run's goroutine when the run is aborting, p failed, or
// nothing is ready. It reports whether p picked itself, in which case
// p keeps running without a channel operation.
func (w *World) handoff(p *proc) bool {
	if !w.abort && p.err == nil {
		if next := w.ready.pop(); next != nil {
			next.state = stateRunning
			if next == p {
				return true
			}
			next.resume <- struct{}{}
			return false
		}
	}
	w.idle <- struct{}{}
	return false
}

func (w *World) allDone() bool {
	for _, p := range w.procs {
		if p.state != stateDone {
			return false
		}
	}
	return true
}

// abortAll releases every non-done proc so its goroutine can unwind.
// Each released proc hands the baton straight back on idle.
func (w *World) abortAll() {
	w.abort = true
	for released := true; released; {
		released = false
		for _, p := range w.procs {
			if p.state == stateBlocked || p.state == stateReady {
				p.state = stateRunning
				p.resume <- struct{}{}
				<-w.idle
				released = true
			}
		}
	}
}

func (w *World) collectErrors() error {
	var errs []error
	for _, p := range w.procs {
		if p.err != nil && !errors.Is(p.err, errAborted) {
			errs = append(errs, p.err)
		}
	}
	return errors.Join(errs...)
}

func (w *World) deadlockError() error {
	var stuck []string
	for _, p := range w.procs {
		if p.state == stateBlocked {
			stuck = append(stuck, fmt.Sprintf("rank %d: %s", p.rank, p.why))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("mpi: deadlock; blocked ranks: %v", stuck)
}

// yield parks the running proc as ready at its current virtual time
// and returns when the scheduler picks it again.
func (w *World) yield(p *proc) {
	p.state = stateReady
	w.ready.push(p)
	w.park(p)
}

// block parks the proc until another rank unblocks it.
func (w *World) block(p *proc, why blockReason) {
	p.state = stateBlocked
	p.why = why
	w.park(p)
}

// park hands the baton on and waits for it to come back.
func (w *World) park(p *proc) {
	w.stats.Steps++
	if w.handoff(p) {
		return
	}
	<-p.resume
	if w.abort {
		panic(errAborted)
	}
}

// unblock marks a blocked proc runnable at global time t.
func (w *World) unblock(p *proc, t int64) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("mpi: unblock of rank %d in state %d", p.rank, p.state))
	}
	if t > p.now {
		p.now = t
	}
	p.state = stateReady
	w.ready.push(p)
}

// readyHeap is a binary min-heap of the ready procs ordered by (now,
// rank): the earliest virtual time runs next, and among equal times
// the lowest rank. A proc's now changes only while it runs or in
// unblock, before it is pushed, so keys never go stale.
type readyHeap []*proc

func (h readyHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.now < b.now || a.now == b.now && a.rank < b.rank
}

func (h *readyHeap) push(p *proc) {
	q := append(*h, p)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the earliest ready proc, or nil.
func (h *readyHeap) pop() *proc {
	q := *h
	n := len(q) - 1
	if n < 0 {
		return nil
	}
	top := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q.less(r, m) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// blockOp is the kind of operation a blocked proc waits in.
type blockOp uint8

const (
	blockSend blockOp = iota
	blockRecv
	blockRecvAny
	blockWait
	blockColl
)

// blockReason records what a blocked proc waits for. It is formatted
// only when a deadlock is reported.
type blockReason struct {
	op   blockOp
	kind trace.Kind // collective kind
	peer int32      // world rank: send destination, receive/wait peer
	tag  int
	comm int32
	seq  int64
	send bool // waiting on a send request
}

func (b blockReason) String() string {
	switch b.op {
	case blockSend:
		return fmt.Sprintf("send(dst=%d tag=%d)", b.peer, b.tag)
	case blockRecv:
		return fmt.Sprintf("recv(src=%d tag=%d)", b.peer, b.tag)
	case blockRecvAny:
		return fmt.Sprintf("recv(src=ANY tag=%d)", b.tag)
	case blockWait:
		return fmt.Sprintf("wait(%s tag=%d peer=%d)", sideName(b.send), b.tag, b.peer)
	default:
		return fmt.Sprintf("%s(comm=%d seq=%d)", b.kind, b.comm, b.seq)
	}
}
