package perfbench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"debugtuner/internal/codegen"
	"debugtuner/internal/corpus"
	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debugger"
	"debugtuner/internal/ir"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/sema"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/tuner"
	"debugtuner/internal/vm"
	"debugtuner/internal/workerpool"
)

type level struct {
	profile pipeline.Profile
	level   string
}

// matrixLevels are the (profile, level) matrices the workload analyzes.
var matrixLevels = []level{{pipeline.GCC, "O2"}, {pipeline.Clang, "O3"}}

// cell is one AnalyzeLevel product: the reference product metric of a
// program, or the relative increment of one disabled pass.
type cell struct {
	Product  float64 `json:"p"`
	NoEffect bool    `json:"n,omitempty"`
}

func cellKey(profile pipeline.Profile, level, prog, pass string) string {
	return fmt.Sprintf("%s-%s|%s|%s", profile, level, prog, pass)
}

// corporaPath is where the set-up child leaves the corpora for the
// measured rounds.
func corporaPath(cfg *config) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("matrix-corpora-%d.json", cfg.seed))
}

// matrixChild is a set-up child (cfg.setupChild) or a measured round. The
// set-up child loads the suite with testsuite.LoadAll, which grows the
// corpora (the set-up), and writes the corpora out. A measured round
// front-ends the subjects with those corpora, as testsuite.Load does
// after fuzzing, and analyzes both levels on the program's own worker
// pool (the timed region).
func matrixChild(cfg *config, _, _, _ int) (*childReport, error) {
	if cfg.setupChild {
		rep := &childReport{Inputs: "corpora"}
		t0 := time.Now()
		subs, err := testsuite.LoadAll(testsuite.CorpusOptions{Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		rep.SetupS = time.Since(t0).Seconds()
		inputs := map[string]map[string][][]int64{}
		for _, s := range subs {
			inputs[s.Program.Name] = s.Program.Inputs
		}
		rep.Digest = digestOf(inputs)
		rep.InputsDigest = rep.Digest
		b, err := json.Marshal(inputs)
		if err != nil {
			return nil, err
		}
		return rep, os.WriteFile(corporaPath(cfg), b, 0o644)
	}

	rep := &childReport{Workers: workerpool.Workers(), Cells: map[string]cell{}, Inputs: "matrix"}
	b, err := os.ReadFile(corporaPath(cfg))
	if err != nil {
		return nil, err
	}
	var inputs map[string]map[string][][]int64
	if err := json.Unmarshal(b, &inputs); err != nil {
		return nil, err
	}
	rep.InputsDigest = digestOf(inputs)
	var progs []*tuner.Program
	for _, name := range testsuite.Names {
		src, err := testsuite.Source(name)
		if err != nil {
			return nil, err
		}
		p, err := tuner.LoadProgram(name, src, inputs[name])
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}

	// Each step is one subject's matrix at one level, so that taking a
	// step at its fastest repetition (fastestRepeats) picks the quiet
	// moments of a shared machine at a grain of ~0.2 s rather than of a
	// whole level.
	tr := startTimed()
	for _, lv := range matrixLevels {
		passes := pipeline.EnabledPasses(lv.profile, lv.level)
		for _, p := range progs {
			l0, c0 := time.Now(), cpuSeconds()
			la, err := tuner.AnalyzeLevel([]*tuner.Program{p}, lv.profile, lv.level)
			if err != nil {
				return nil, err
			}
			rep.LatMS = append(rep.LatMS, msSince(l0))
			rep.StepCPUMS = append(rep.StepCPUMS, 1000*(cpuSeconds()-c0))
			rep.Ops += 1 + len(passes)
			if len(la.QuarantinedPrograms) > 0 {
				for range passes {
					rep.fail("%s: %s-%s quarantined", p.Name, lv.profile, lv.level)
				}
				rep.fail("%s: %s-%s reference quarantined", p.Name, lv.profile, lv.level)
			}
			for name, prod := range la.RefProduct {
				rep.Cells[cellKey(lv.profile, lv.level, name, "")] = cell{Product: prod}
			}
			for _, rp := range la.Ranking {
				for name, eff := range rp.Effects {
					if eff.Quarantined {
						rep.fail("%s/%s: %s-%s cell quarantined", name, rp.Name, lv.profile, lv.level)
					}
					rep.Cells[cellKey(lv.profile, lv.level, name, rp.Name)] = cell{Product: eff.Increment, NoEffect: eff.NoEffect}
				}
			}
		}
	}
	tr.stop(rep)
	rep.PeakRSSMB = peakRSSMB()
	rep.Digest = digestOf(rep.Cells)
	return rep, nil
}

// tracedMatrix replays, on one worker and with spans around each layer,
// what the untraced child did: testsuite.Load's corpus pipeline, then
// AnalyzeLevel's own cells (reference build, toggle builds, the TextHash
// comparison, the trace and Hybrid). The replay's corpora and per-cell
// products must equal the child's.
func tracedMatrix(cfg *config) (*outcome, error) {
	set, err := runChild(cfg, 0, 0, 1, true)
	if err != nil {
		return nil, err
	}
	ref, err := runChild(cfg, 0, 0, 1, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, failed: ref.Failed, problems: ref.Problems}
	out.attempted++
	if ref.InputsDigest != set.InputsDigest {
		out.fail(1, "matrix: the measured round read other corpora than testsuite.LoadAll made")
	}
	workerpool.SetWorkers(1)
	t := newTracer()
	r0 := readRuntime()

	progs, err := replayLoad(t, cfg.seed)
	if err != nil {
		return nil, err
	}
	inputs := map[string]map[string][][]int64{}
	for _, p := range progs {
		inputs[p.Name] = p.Inputs
	}
	out.attempted++
	if digestOf(inputs) != set.InputsDigest {
		out.fail(1, "matrix: replayed corpora differ from testsuite.LoadAll's")
	}

	cellLayers := []string{"passes", "codegen", "debugger", "metrics"}
	before := t.totalCPU(cellLayers...)
	cpu0 := cpuSeconds()
	if err := replayCells(t, progs, matrixLevels, ref.Cells, out); err != nil {
		return nil, err
	}
	replayCPU := cpuSeconds() - cpu0
	layersCPU := t.totalCPU(cellLayers...) - before

	m := out.metrics
	t.layerMetrics(m)
	m["tuner.self_cpu_ms"] = 1000 * (ref.CPUS - layersCPU)
	m["workerpool.utilization"] = ref.CPUS / (ref.TimedS * float64(ref.Workers))
	m["trace.coverage"] = layersCPU / ref.CPUS
	m["trace.overhead_pct"] = 100 * (replayCPU/ref.CPUS - 1)
	runtimeMetrics(m, r0)
	return out, t.write(cfg)
}

// replayLoad is testsuite.Load step by step: front end, -O0 build, then
// per harness fuzzing, cmin, per-input debug traces and cover pruning.
func replayLoad(t *tracer, seed int64) ([]*tuner.Program, error) {
	var progs []*tuner.Program
	for _, name := range testsuite.Names {
		src, err := testsuite.Source(name)
		if err != nil {
			return nil, err
		}
		var info *sema.Info
		var ir0 *ir.Program
		var dr *sema.DefRanges
		t.span("frontend", func() {
			if info, err = pipeline.Frontend(name+".mc", src); err != nil {
				return
			}
			if ir0, err = pipeline.BuildIR(info); err != nil {
				return
			}
			dr = sema.ComputeDefRanges(info)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p := &tuner.Program{Name: name, Src: src, Info: info, DR: dr, IR0: ir0, Entry: "main", Budget: 1 << 26}
		bin := buildTraced(t, ir0, pipeline.MustConfig(pipeline.GCC, "O0"))
		var sess *debugger.Session
		t.span("debugger", func() { sess, err = debugger.NewSession(bin) })
		if err != nil {
			return nil, err
		}
		const execs, budget = 600, 1 << 19 // testsuite.Load's defaults
		p.Inputs = map[string][][]int64{}
		for hi, h := range info.Harnesses {
			fz := &corpus.Fuzzer{Bin: bin, Harness: h, Seed: seed + int64(hi)*7919 + nameHash(name),
				Execs: execs, StepBudget: budget}
			var queue *corpus.Corpus
			var kept []int
			t.span("corpus", func() {
				queue = fz.Run()
				kept = corpus.CMin(queue)
			})
			t.n["corpus.execs"] += float64(fz.Execs)
			t.n["corpus.queue"] += float64(len(queue.Entries))
			perInput := make([]*dbgtrace.Trace, len(kept))
			t.span("debugger", func() {
				for i, idx := range kept {
					if perInput[i], err = sess.Trace(h, [][]int64{queue.Entries[idx].Input}, budget*4); err != nil {
						return
					}
				}
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, h, err)
			}
			var finalIdx []int
			t.span("corpus", func() { finalIdx = dbgtrace.CoverPrune(perInput) })
			var final [][]int64
			for _, i := range finalIdx {
				final = append(final, queue.Entries[kept[i]].Input)
			}
			p.Inputs[h] = final
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// nameHash is testsuite's per-name corpus seed component.
func nameHash(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h % 1000003
}

// replayCells recomputes every AnalyzeLevel cell of the levels and, when
// want is not nil, compares it with the untraced product.
func replayCells(t *tracer, progs []*tuner.Program, levels []level, want map[string]cell, out *outcome) error {
	check := func(key string, got cell) {
		t.n["tuner.cells"]++
		if got.NoEffect {
			t.n["tuner.noeffect_cells"]++
		}
		if want == nil {
			return
		}
		out.attempted++
		if w, ok := want[key]; !ok || w != got {
			out.fail(1, "matrix: cell %s: replay %+v, AnalyzeLevel %+v", key, got, w)
		}
	}
	for _, p := range progs {
		base, err := traceBuild(t, p, pipeline.MustConfig(pipeline.GCC, "O0"))
		if err != nil {
			return err
		}
		for _, lv := range levels {
			refBin := buildTraced(t, p.IR0, pipeline.MustConfig(lv.profile, lv.level))
			refM, err := hybrid(t, p, refBin, base)
			if err != nil {
				return err
			}
			check(cellKey(lv.profile, lv.level, p.Name, ""), cell{Product: refM})
			refHash := refBin.TextHash()
			for _, pass := range pipeline.EnabledPasses(lv.profile, lv.level) {
				bin := buildTraced(t, p.IR0, pipeline.MustConfig(lv.profile, lv.level, pipeline.Disable(pass)))
				got := cell{NoEffect: bin.TextHash() == refHash}
				if !got.NoEffect {
					m, err := hybrid(t, p, bin, base)
					if err != nil {
						return err
					}
					if refM > 0 {
						got.Product = (m - refM) / refM
					}
				}
				check(cellKey(lv.profile, lv.level, p.Name, pass), got)
			}
		}
	}
	return nil
}

// traceBuild builds and debug-traces one configuration.
func traceBuild(t *tracer, p *tuner.Program, cfg pipeline.Config) (*dbgtrace.Trace, error) {
	return traceBin(t, p, buildTraced(t, p.IR0, cfg))
}

func traceBin(t *tracer, p *tuner.Program, bin *vm.Binary) (tr *dbgtrace.Trace, err error) {
	t.span("debugger", func() { tr, err = p.Trace(bin) })
	if err == nil {
		t.n["debugger.lines_stepped"] += float64(len(tr.Stepped))
	}
	return tr, err
}

// hybrid traces bin and scores it against the -O0 baseline.
func hybrid(t *tracer, p *tuner.Program, bin *vm.Binary, base *dbgtrace.Trace) (float64, error) {
	tr, err := traceBin(t, p, bin)
	if err != nil {
		return 0, err
	}
	var s metrics.Scores
	t.span("metrics", func() { s = metrics.Hybrid(tr, base, p.DR) })
	return s.Product, nil
}

// buildTraced is pipeline.Build with the middle end and the back end in
// spans of their own.
func buildTraced(t *tracer, ir0 *ir.Program, cfg pipeline.Config) *vm.Binary {
	var prog *ir.Program
	var opts codegen.Options
	t.span("passes", func() { prog, opts = pipeline.OptimizeIR(ir0, cfg) })
	var bin *vm.Binary
	t.span("codegen", func() { bin = codegen.Compile(prog, opts) })
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			t.n["passes.ir_values"] += float64(len(b.Instrs))
		}
	}
	t.n["codegen.instrs"] += float64(len(bin.Code))
	return bin
}

// digestOf fingerprints a JSON-encodable value (maps encode sorted).
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
