// Package perfbench is the repository benchmark. It runs one workload
// (matrix, spec or serve), checks the program's outputs, and
// prints one JSON result line: the end-to-end metrics with -trace 0, the
// per-layer metrics of a traced replay with -trace 1. The command is
// cmd/perfbench.
//
// Batch workloads run every measured round in a fresh child process of
// this binary, so the program's package-level memos never carry over
// from one round to the next; serve runs tunerd as a child with an empty
// temporary cache directory. workloads.json records what each workload
// runs, why, and which layers it stresses and bypasses.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload spec --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload matrix --selftest
package perfbench

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var recordJSON []byte

// record is the part of workloads.json the benchmark reads.
type record struct {
	SpecConfigs []struct {
		Name    string   `json:"name"`
		Profile string   `json:"profile"`
		Level   string   `json:"level"`
		Disable []string `json:"disable"`
	} `json:"spec_configs"`
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics in BENCHMARK.json's order;
// checkBenchmarkJSON keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"}, {"ok_ratio", "1"}, {"p50_ms", "ms"}, {"p90_ms", "ms"},
}

var perLayer = []metricDef{
	{"frontend.cpu_ms", "ms"},
	{"corpus.cpu_ms", "ms"}, {"corpus.execs", "count"}, {"corpus.queue", "count"}, {"corpus.alloc_mb", "MiB"},
	{"passes.cpu_ms", "ms"}, {"passes.alloc_mb", "MiB"}, {"passes.ir_values", "count"},
	{"codegen.cpu_ms", "ms"}, {"codegen.alloc_mb", "MiB"}, {"codegen.instrs", "count"},
	{"tuner.cells", "count"}, {"tuner.noeffect_cells", "count"}, {"tuner.self_cpu_ms", "ms"},
	{"workerpool.utilization", "1"},
	{"debugger.cpu_ms", "ms"}, {"debugger.lines_stepped", "count"},
	{"metrics.cpu_ms", "ms"},
	{"vm.cpu_ms", "ms"}, {"vm.steps", "count"}, {"vm.msteps_per_s", "Msteps/s"}, {"vm.alloc_mb", "MiB"},
	{"serve.compute_ms", "ms"}, {"serve.overhead_ms", "ms"},
	{"api.codec_ms", "ms"},
	{"evalcache.hit_ratio", "1"}, {"evalcache.disk_put_ms", "ms"},
	{"serve.rejected", "count"}, {"serve.rss_growth_mb", "MiB"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_count", "count"}, {"runtime.gc_cpu_frac", "1"},
	{"trace.coverage", "1"}, {"trace.overhead_pct", "%"},
	{"harness.calib_ms", "ms"}, {"harness.calib_mem_ms", "ms"}, {"loadgen.late_ms", "ms"},
}

// config carries the command line into the workloads.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tunerd   string // tunerd binary (serve)
	workdir  string // scratch space inside the checkout
	rec      record
	// setupChild says this process is a batch workload's set-up child
	// (see batchSpec.setups).
	setupChild bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks, for stderr
	metrics           map[string]float64
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	// measure produces the end-to-end metrics; traced the per-layer ones.
	measure func(*config) (*outcome, error)
	traced  func(*config) (*outcome, error)
	// child runs one measured round in a child process (batch only):
	// chunk c of chunks in pass number pass.
	child func(cfg *config, pass, chunk, chunks int) (*childReport, error)
}

var workloads = map[string]workload{
	"matrix": {measure: measureBatch(matrixBatch), traced: tracedMatrix, child: matrixChild},
	"spec":   {measure: measureBatch(specBatch), traced: tracedSpec, child: specChild},
	"serve":  {measure: measureServe, traced: tracedServe},
}

// Main runs the benchmark with the command-line arguments (without the
// program name).
func Main(args []string) error {
	cfg := &config{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "matrix, spec or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: corpus seed (matrix), op order (spec), body generator (serve)")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "how long the timed region runs")
	traceN := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.tunerd, "tunerd", "", "tunerd binary (serve)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "scratch directory")
	selftest := fs.Bool("selftest", false, "isolation self-test: traced counts repeat for a seed and change with it")
	childPass := fs.Int("child-pass", 0, "internal: the pass a child round belongs to")
	childChunk := fs.Int("child-chunk", -1, "internal: run one measured round as a child")
	childChunks := fs.Int("child-chunks", 1, "internal: number of rounds the op list is split into")
	fs.BoolVar(&cfg.setupChild, "child-setup", false, "internal: run a set-up child instead of a measured round")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = *traceN == 1
	return run(cfg, *selftest, *childPass, *childChunk, *childChunks)
}

func run(cfg *config, selftest bool, pass, chunk, chunks int) error {
	if err := json.Unmarshal(recordJSON, &cfg.rec); err != nil {
		return fmt.Errorf("workloads.json: %w", err)
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want matrix, spec or serve)", cfg.workload)
	}
	if chunk >= 0 {
		rep, err := w.child(cfg, pass, chunk, chunks)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	if selftest {
		return selfTest(cfg)
	}

	calib, calibMem := calibrate(), calibrateMem()
	measure := w.measure
	if cfg.trace {
		measure = w.traced
	}
	out, err := measure(cfg)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out.metrics["harness.calib_ms"] = calib
	out.metrics["harness.calib_mem_ms"] = calibMem

	drift := map[string]any{
		"harness.calib_ms": calib, "harness.calib_mem_ms": calibMem, "loadgen.late_ms": out.metrics["loadgen.late_ms"],
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workload": cfg.workload, "seed": cfg.seed,
	}
	db, _ := json.Marshal(map[string]any{"drift": drift})
	fmt.Println(string(db))

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: out.metrics[d.name], Unit: d.unit}
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	if out.failed > 0 || out.attempted == 0 {
		return fmt.Errorf("%d of %d ops failed their output checks", out.failed, out.attempted)
	}
	return nil
}

// checkBenchmarkJSON fails when BENCHMARK.json (if present) names other
// metrics or units than this binary prints.
func checkBenchmarkJSON(path string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(got []struct{ Name, Unit string }, want []metricDef) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return false
			}
		}
		return true
	}
	if !same(b.EndToEnd, endToEnd) || !same(b.PerLayer, perLayer) {
		return fmt.Errorf("%s lists other metrics than perfbench prints", path)
	}
	return nil
}

// calibrate times a fixed integer loop (median of five) so a reader can
// tell a slower box from a slower program.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x = bits.RotateLeft64(x, 3) + uint64(i)
		}
		calibSink += x
		ts = append(ts, msSince(t0))
	}
	return median(ts)
}

// calibrateMem times a fixed allocation and pointer-chasing loop (median
// of five): 2^17 heap nodes linked in a seeded random order, then walked.
// It tracks what the ALU loop misses, the cost of allocation, garbage
// collection and cache misses that the workloads' IR graphs and VM
// memory pay, so it moves with a box whose memory system is shared or
// slower.
func calibrateMem() float64 {
	type node struct {
		next *node
		v    [7]uint64
	}
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		nodes := make([]*node, 1<<17)
		for i := range nodes {
			nodes[i] = &node{v: [7]uint64{uint64(i)}}
		}
		perm := rand.New(rand.NewSource(1)).Perm(len(nodes))
		for i, p := range perm {
			nodes[p].next = nodes[perm[(i+1)%len(perm)]]
		}
		n, sum := nodes[0], uint64(0)
		for i := 0; i < 4*len(nodes); i++ {
			sum += n.v[0]
			n = n.next
		}
		calibSink += sum
		ts = append(ts, msSince(t0))
	}
	return median(ts)
}

// calibSink keeps the calibration loops' results live.
var calibSink uint64

// selfTest runs the traced workload twice with one seed and once with
// the next, in fresh processes, and checks that the layer counts repeat
// exactly for a seed and change with it: a cache leaking warm state into
// a measured run would break the first, a seed that does not reach the
// inputs the second.
func selfTest(cfg *config) error {
	counts := []string{"vm.steps", "codegen.instrs", "tuner.cells", "tuner.noeffect_cells",
		"corpus.execs", "corpus.queue", "debugger.lines_stepped", "evalcache.hit_ratio"}
	var got [3]map[string]float64
	for i, seed := range []int64{cfg.seed, cfg.seed, cfg.seed + 1} {
		m, err := runSelf(cfg, seed)
		if err != nil {
			return err
		}
		got[i] = m
	}
	var diffs []string
	changed := false
	for _, c := range counts {
		a, b, o := got[0][c], got[1][c], got[2][c]
		fmt.Printf("%-24s seed %d: %g, again: %g, seed %d: %g\n", c, cfg.seed, a, b, cfg.seed+1, o)
		if a != b {
			diffs = append(diffs, c)
		}
		if a != o {
			changed = true
		}
	}
	switch {
	case len(diffs) > 0:
		return fmt.Errorf("selftest FAIL: %s differ between two runs of seed %d", strings.Join(diffs, ", "), cfg.seed)
	case !changed:
		return fmt.Errorf("selftest FAIL: no count changes with the seed")
	}
	fmt.Println("selftest PASS")
	return nil
}

// runSelf runs this binary as a traced child and returns its metrics.
func runSelf(cfg *config, seed int64) (map[string]float64, error) {
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", "1", "-tunerd", cfg.tunerd, "-workdir", cfg.workdir}
	out, err := runChildProcess(args)
	if err != nil {
		return nil, err
	}
	var res struct {
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return nil, fmt.Errorf("traced child: %w", err)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (q in [0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
