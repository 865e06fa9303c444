package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The host reference turns measured times into times at a fixed host
// speed. On a shared host the speed can drift by 15–70% over minutes,
// mostly in memory-bound work, so the median job time of a run depends
// on when the run happens as much as on the program. A run therefore
// also times a few fixed kernels, owned by the benchmark and calling no
// code of the repository, interleaved with its set-ups and jobs, and
// divides every reported time by how much slower than nominal the
// kernels ran. A change to the program does not change the kernels, so
// it moves the normalised times as it moves the raw ones.

// refKernel is one fixed piece of work and its nominal time: the median
// on a quiet 2-vCPU Intel Xeon host (go1.24.0).
type refKernel struct {
	name    string
	nominal time.Duration
	run     func(dir string) error
}

// refKernels cover the kinds of work the jobs do: allocation with map
// and pointer traffic on one core and on every core at once, and JSON
// encoding written to a file. An arithmetic loop (calibLoop) is left
// out: its time moves with the host far less than the jobs' times do.
var refKernels = []refKernel{
	{"alloc", 14 * time.Millisecond, func(string) error { refAlloc(); return nil }},
	{"alloc-all", 23 * time.Millisecond, func(string) error { refAllocAll(); return nil }},
	{"json", 21 * time.Millisecond, refJSON},
}

const (
	refNodes   = 50_000 // nodes refAlloc links and indexes
	refRecords = 20_000 // records refJSON encodes
)

var refSink uint64

type refNode struct {
	next *refNode
	v    [6]int64
}

// refAlloc links refNodes heap nodes into a list, indexes them in a map
// under scattered keys, and walks the map.
func refAlloc() {
	m := make(map[int64]*refNode)
	var head *refNode
	for i := 0; i < refNodes; i++ {
		n := &refNode{next: head}
		n.v[0] = int64(i)
		head = n
		m[int64(i)*2654435761%1000003] = n
	}
	var s int64
	for k, n := range m {
		s += k + n.v[0]
	}
	refSink += uint64(s)
}

// refAllocAll runs refAlloc on every core at once.
func refAllocAll() {
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refAlloc()
		}()
	}
	wg.Wait()
}

type refRecord struct {
	Name string    `json:"name"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Args []float64 `json:"args"`
}

// refJSON encodes refRecords trace-event-like records and writes them
// to a file in dir.
func refJSON(dir string) error {
	recs := make([]refRecord, refRecords)
	for i := range recs {
		recs[i] = refRecord{Name: "MPI_Send", Ts: float64(i) * 1.5, Dur: 3.25, Args: []float64{float64(i), 2, 3}}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "hostref.json"), data, 0o644)
}

// hostRef collects the kernels' times over one phase of a run.
type hostRef struct {
	dir     string
	samples [][]float64 // per kernel, seconds
}

func newHostRef(dir string) *hostRef {
	return &hostRef{dir: dir, samples: make([][]float64, len(refKernels))}
}

// sample times every kernel once, each after a GC so that it starts
// from the same heap.
func (h *hostRef) sample() error {
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return err
	}
	for i, k := range refKernels {
		runtime.GC()
		start := time.Now()
		if err := k.run(h.dir); err != nil {
			return err
		}
		h.samples[i] = append(h.samples[i], time.Since(start).Seconds())
	}
	return nil
}

// slowdown is how much slower than nominal the host ran: the geometric
// mean over kernels of median time over nominal time. 1 means nominal
// speed; a measured time divided by it is a time at nominal speed.
func (h *hostRef) slowdown() float64 {
	var sum float64
	for i, k := range refKernels {
		sum += math.Log(median(h.samples[i]) / k.nominal.Seconds())
	}
	return math.Exp(sum / float64(len(refKernels)))
}

// medians gives each kernel's median time in seconds, by name.
func (h *hostRef) medians() map[string]float64 {
	m := map[string]float64{}
	for i, k := range refKernels {
		m[k.name] = median(h.samples[i])
	}
	return m
}
