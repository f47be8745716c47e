package perfbench

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"debugtuner/internal/ir"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/vm"
	"debugtuner/internal/workerpool"
)

// refBudget is specsuite.RunBinary's step budget for the ref workload.
const refBudget = 1 << 33

type specOp struct {
	bench string
	cfg   int // index into the pinned configurations
}

// specConfigs resolves the configurations pinned in workloads.json.
func specConfigs(rec record) ([]pipeline.Config, error) {
	var out []pipeline.Config
	for _, c := range rec.SpecConfigs {
		cfg, err := pipeline.NewConfig(pipeline.Profile(c.Profile), c.Level, pipeline.Disable(c.Disable...))
		if err != nil {
			return nil, fmt.Errorf("spec config %s: %w", c.Name, err)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// specOps is the chunk's share of the (benchmark, config) ops: every
// benchmark appears in every chunk with an equal number of configs,
// shifted by a seeded offset, in seeded order.
func specOps(seed int64, nconfigs, chunk, chunks int) []specOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []specOp
	for _, b := range specsuite.Names {
		off := rng.Intn(chunks)
		for c := 0; c < nconfigs; c++ {
			if (c+off)%chunks == chunk {
				ops = append(ops, specOp{b, c})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// loadSpec front-ends the benchmarks (the set-up).
func loadSpec() (map[string]*ir.Program, error) {
	irs := map[string]*ir.Program{}
	for _, n := range specsuite.Names {
		p, err := specsuite.LoadIR(n)
		if err != nil {
			return nil, err
		}
		irs[n] = p
	}
	return irs, nil
}

// specChild builds and runs its chunk of ops, then checks each run's
// output against ir.Interp on the benchmark's -O0 IR.
func specChild(cfg *config, _, chunk, chunks int) (*childReport, error) {
	configs, err := specConfigs(cfg.rec)
	if err != nil {
		return nil, err
	}
	workerpool.SetWorkers(1)
	rep := &childReport{Workers: 1, Inputs: fmt.Sprintf("chunk %d of %d", chunk, chunks)}
	t0 := time.Now()
	irs, err := loadSpec()
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(t0).Seconds()

	ops := specOps(cfg.seed, len(configs), chunk, chunks)
	results := make([]*specsuite.Result, len(ops))
	tr := startTimed()
	for i, op := range ops {
		o0, c0 := time.Now(), cpuSeconds()
		bin := pipeline.Build(irs[op.bench], configs[op.cfg])
		r, err := specsuite.RunBinary(op.bench, bin)
		rep.LatMS = append(rep.LatMS, msSince(o0))
		rep.StepCPUMS = append(rep.StepCPUMS, 1000*(cpuSeconds()-c0))
		rep.Ops++
		if err != nil {
			rep.fail("%s/%s: %v", op.bench, configs[op.cfg].Name(), err)
			continue
		}
		results[i] = r
	}
	tr.stop(rep)
	rep.PeakRSSMB = peakRSSMB()

	outputs := map[string][]int64{}
	counts := map[string][2]int64{}
	for i, op := range ops {
		if results[i] == nil {
			continue
		}
		if err := checkSpecOutput(outputs, irs, op.bench, results[i].Output); err != nil {
			rep.fail("%s/%s: %v", op.bench, configs[op.cfg].Name(), err)
		}
		counts[op.bench+"|"+configs[op.cfg].Name()] = [2]int64{results[i].Steps, results[i].Cycles}
	}
	rep.Digest = digestOf(counts)
	return rep, nil
}

// checkSpecOutput compares a run's print stream with the IR
// interpreter's on the -O0 IR, the independent reference (memoized per
// benchmark in want).
func checkSpecOutput(want map[string][]int64, irs map[string]*ir.Program, bench string, got []int64) error {
	w, ok := want[bench]
	if !ok {
		in := ir.NewInterp(irs[bench], refBudget)
		if _, err := in.Call("main"); err != nil {
			return fmt.Errorf("ir.Interp: %w", err)
		}
		w = in.Output()
		want[bench] = w
	}
	if !slices.Equal(got, w) {
		return fmt.Errorf("output differs from ir.Interp on the -O0 IR (%d vs %d values)", len(got), len(w))
	}
	return nil
}

// tracedSpec replays chunk 0 with the front end, middle end, back end
// and VM in spans of their own.
func tracedSpec(cfg *config) (*outcome, error) {
	ref, err := runChild(cfg, 0, 0, specBatch.chunks, false)
	if err != nil {
		return nil, err
	}
	configs, err := specConfigs(cfg.rec)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, failed: ref.Failed, problems: ref.Problems}
	workerpool.SetWorkers(1)
	t := newTracer()
	r0 := readRuntime()
	var irs map[string]*ir.Program
	t.span("frontend", func() { irs, err = loadSpec() })
	if err != nil {
		return nil, err
	}

	counts := map[string][2]int64{}
	got := map[specOp][]int64{}
	ops := specOps(cfg.seed, len(configs), 0, specBatch.chunks)
	wall0 := time.Now()
	for _, op := range ops {
		name := op.bench + "|" + configs[op.cfg].Name()
		bin := buildTraced(t, irs[op.bench], configs[op.cfg])
		var m *vm.Machine
		t.span("vm", func() {
			m = vm.New(bin)
			m.StepBudget = refBudget
			_, err = m.Call("main")
		})
		out.attempted++
		if err != nil {
			out.fail(1, "%s: %v", name, err)
			continue
		}
		t.n["vm.steps"] += float64(m.Steps)
		counts[name] = [2]int64{m.Steps, m.Cycles}
		got[op] = m.Output()
	}
	replayWall := time.Since(wall0).Seconds()
	outputs := map[string][]int64{}
	for op, o := range got {
		if err := checkSpecOutput(outputs, irs, op.bench, o); err != nil {
			out.fail(1, "%s|%s: %v", op.bench, configs[op.cfg].Name(), err)
		}
	}
	if digestOf(counts) != ref.Digest {
		out.fail(1, "spec: replayed step and cycle counts differ from the untraced child's")
	}

	m := out.metrics
	t.layerMetrics(m)
	if c := t.cpu["vm"]; c > 0 {
		m["vm.msteps_per_s"] = t.n["vm.steps"] / c / 1e6
	}
	layersCPU := t.totalCPU("passes", "codegen", "vm")
	m["workerpool.utilization"] = ref.CPUS / (ref.TimedS * float64(ref.Workers))
	m["trace.coverage"] = layersCPU / ref.CPUS
	m["trace.overhead_pct"] = 100 * (replayWall/ref.TimedS - 1)
	runtimeMetrics(m, r0)
	return out, t.write(cfg)
}
