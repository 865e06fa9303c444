package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// host is the fingerprint printed with every result, so that figures
// taken on different machines can be told apart and normalised.
type host struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibNS    float64 `json:"calib_loop_ns"`
	CalibAllNS float64 `json:"calib_loop_all_ns"`
	SpinScale  float64 `json:"spin_scaling"`
	Samples    int     `json:"calib_samples"`
}

// calibIters fixes the calibration loop's length: about 5 ms on a
// current x86 core, long enough to dwarf timer resolution.
const calibIters = 2_000_000

// calibRounds is how many times one sample runs the loop on one core
// and on every core.
const calibRounds = 5

var calibSink atomic.Uint64

// calibLoop is a dependent xorshift chain: pure integer work with no
// memory traffic, so its time tracks core speed alone.
func calibLoop(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink.Add(x)
}

// spin runs the calibration loop on g goroutines at once and returns
// the wall time until all have finished.
func spin(g int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibLoop(calibIters)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// calibration samples the host's speed: the calibration loop on one
// core, and on every core at once. A run samples it before set-up and
// again after its measured jobs, never between them.
type calibration struct {
	one, all []float64
}

func (c *calibration) sample() {
	for i := 0; i < calibRounds; i++ {
		c.one = append(c.one, float64(spin(1)))
		c.all = append(c.all, float64(spin(runtime.NumCPU())))
	}
}

// fingerprint describes the host: the median calibration loop time on
// one core, and the 1→nproc spin-loop scaling (nproc loops at once
// versus one; 1.0 means no parallel speed-up).
func (c *calibration) fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibNS:    median(c.one),
		CalibAllNS: median(c.all),
		Samples:    len(c.one),
	}
	h.SpinScale = float64(h.NumCPU) * h.CalibNS / h.CalibAllNS
	return h
}

// cpuModel reads the processor name the kernel reports; hosts without
// /proc/cpuinfo report "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runtimeCounters reads the cumulative allocation and GC counters.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.allocObjects - o.allocObjects, c.gcCycles - o.gcCycles}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes + o.allocBytes, c.allocObjects + o.allocObjects, c.gcCycles + o.gcCycles}
}

// liveHeapAfterGC runs a full GC and returns the live heap left: what
// the caller still holds.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the live heap after every GC cycle, by cycle
// number. A sentinel object's finalizer runs once per cycle and re-arms
// itself, so the heap is sampled at every collection without a polling
// goroutine competing for the cores.
type heapSampler struct {
	stopped atomic.Bool
	mu      sync.Mutex
	live    map[uint64]uint64 // GC cycle -> live heap bytes after it
}

// gcSentinel holds a pointer so that it is never placed in the tiny
// allocator, whose blocks can delay finalizers indefinitely.
type gcSentinel struct{ hs *heapSampler }

func startHeapSampler() *heapSampler {
	hs := &heapSampler{live: map[uint64]uint64{}}
	hs.arm()
	return hs
}

func (hs *heapSampler) arm() {
	runtime.SetFinalizer(&gcSentinel{hs}, func(s *gcSentinel) {
		if !s.hs.stopped.Load() {
			s.hs.sample()
			s.hs.arm()
		}
	})
}

func (hs *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.live[s[0].Value.Uint64()] = s[1].Value.Uint64()
}

// peaks stops sampling and returns each job's peak live heap in bytes:
// the largest live heap after any GC cycle inside the job's window, a
// half-open range (first, last] of cycle numbers read before and after
// the job, or after the GC that followed it (end).
func (hs *heapSampler) peaks(windows [][2]uint64, end []uint64) []float64 {
	hs.stopped.Store(true)
	hs.mu.Lock()
	defer hs.mu.Unlock()
	peaks := make([]float64, len(windows))
	for i, w := range windows {
		peak := end[i]
		for c := w[0] + 1; c <= w[1]; c++ {
			peak = max(peak, hs.live[c])
		}
		peaks[i] = float64(peak)
	}
	return peaks
}
