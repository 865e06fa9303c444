package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runBench runs the benchmark at smoke-test size and decodes its last
// line.
func runBench(t *testing.T, cfg config) (int, result) {
	t.Helper()
	cfg.out, cfg.tiny = t.TempDir(), true
	if cfg.seconds == 0 {
		cfg.seconds = 0.2
	}
	var stdout, stderr bytes.Buffer
	code := runConfig(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, stderr.String())
	}
	return code, res
}

// TestSmoke runs every workload traced and untraced at tiny size and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, that no end-to-end metric reads 0, and that every job
// passed its check.
func TestSmoke(t *testing.T) {
	bf := loadBenchFile(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			code, res := runBench(t, config{workload: w.Name, seed: 7, traced: traced})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, correct %v, %d of %d failed", w.Name, traced, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.Name, traced, name, got, unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, got.Value)
				}
			}
		}
	}
}

// TestInteractionMap: interactions.json covers exactly the workloads
// and per-layer metrics of BENCHMARK.json, and maps each per-layer
// metric to end-to-end metrics that exist.
func TestInteractionMap(t *testing.T) {
	bf := loadBenchFile(t)
	data, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var im struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		PerLayer  map[string]struct {
			Moves    []string `json:"moves"`
			Workload string   `json:"workload"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &im); err != nil {
		t.Fatal(err)
	}
	isE2E := map[string]bool{}
	for _, m := range bf.EndToEnd {
		isE2E[m.Name] = true
	}
	var layer, mapped, wls, mappedW []string
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	for name, entry := range im.PerLayer {
		mapped = append(mapped, name)
		if _, ok := im.Workloads[entry.Workload]; !ok {
			t.Errorf("%s names unknown workload %q", name, entry.Workload)
		}
		for _, e := range entry.Moves {
			if !isE2E[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", name, e)
			}
		}
	}
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	for name := range im.Workloads {
		mappedW = append(mappedW, name)
	}
	sameSet(t, "per-layer metrics", layer, mapped)
	sameSet(t, "workloads", wls, mappedW)
}

func sameSet(t *testing.T, what string, a, b []string) {
	t.Helper()
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("%s differ:\n%v\n%v", what, a, b)
	}
}

// TestSeedChangesTraces: the seed reaches trace generation, and the
// same seed generates the same traces.
func TestSeedChangesTraces(t *testing.T) {
	for _, sp := range specs {
		read := func(seed uint64) []byte {
			dir := filepath.Join(t.TempDir(), "traces")
			if err := generate(sp.app, sp.tiny, seed, dir); err != nil {
				t.Fatal(err)
			}
			var all []byte
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, b...)
			}
			return all
		}
		a, b, c := read(1), read(1), read(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different traces twice", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same traces", sp.name)
		}
	}
}

// TestCorruptReferenceFails: a reference that disagrees with the
// program's output fails every job's check, and the run with it.
func TestCorruptReferenceFails(t *testing.T) {
	corrupt := func(r runner) {
		switch r := r.(type) {
		case *streamRun:
			r.ref.MaxFinalDelay++
		case *monteCarlo:
			r.ref[0].MaxFinalDelay++
		case *timelineRun:
			r.ref.MaxFinalDelay++
		default:
			t.Fatalf("no corruption for %T", r)
		}
	}
	for _, sp := range specs {
		code, res := runBench(t, config{workload: sp.name, seed: 7, prepared: corrupt})
		if code == 0 || res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
			t.Errorf("%s: corrupted reference gave exit %d, correct %v, %d of %d failed", sp.name, code, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestOnlyStreamingAndCompiledEngines: the benchmark drives the
// streaming analyzer and the compiled replayer and no other replay
// engine, so that removing another engine never needs a benchmark edit.
func TestOnlyStreamingAndCompiledEngines(t *testing.T) {
	allowed := map[string]bool{"Analyze": true, "Compile": true, "ReplayCompiled": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" && !allowed[sel.Sel.Name] {
				t.Errorf("%s: calls core.%s", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// TestLedger: concurrent replay spans count once, the rest of their
// fan-out is the fan-out's own time, and overlapping layer spans are
// reported instead of summed.
func TestLedger(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.compile", Start: 0, End: 20},
		{ID: 3, Parent: 2, Name: "trace.decode", Start: 0, End: 5, Agg: true},
		{ID: 4, Parent: 1, Name: "parallel.map", Start: 20, End: 90},
		{ID: 5, Parent: 4, Name: "core.replay", Start: 21, End: 60},
		{ID: 6, Parent: 4, Name: "core.replay", Start: 22, End: 70},
		{ID: 7, Parent: 4, Name: "core.replay", Start: 70, End: 88},
	}
	got, n, err := ledger(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"trace.decode": 5, "core.compile": 15, "core.replay": 67, "parallel.map": 3,
		"job.other": 10, "job.wall": 100,
	}
	if n != 1 || len(got) != len(want) {
		t.Fatalf("ledger = %v over %d jobs, want %v", got, n, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	spans[3].Start = 10 // the fan-out now overlaps compile
	if _, _, err := ledger(spans); err == nil {
		t.Error("overlapping layer spans were accepted")
	}
}

// TestHostRefSlowdown: a host whose kernels all take twice their
// nominal time reads 2, and one that is twice as slow in one kernel and
// twice as fast in another reads 1.
func TestHostRefSlowdown(t *testing.T) {
	h := newHostRef(t.TempDir())
	for i, k := range refKernels {
		h.samples[i] = []float64{2 * k.nominal.Seconds(), 2 * k.nominal.Seconds(), 9}
	}
	if got := h.slowdown(); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	for i, k := range refKernels {
		f := 1.0
		switch i {
		case 0:
			f = 2
		case 1:
			f = 0.5
		}
		h.samples[i] = []float64{f * k.nominal.Seconds()}
	}
	if got := h.slowdown(); math.Abs(got-1) > 1e-9 {
		t.Errorf("slowdown = %v, want 1", got)
	}
}
