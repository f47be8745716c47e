package perfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childReport is what one child process measured: its set-up, its timed
// region, and what the parent needs to check the outputs.
type childReport struct {
	SetupS float64 `json:"setup_s"`
	TimedS float64 `json:"timed_s"`
	CPUS   float64 `json:"cpu_s"`
	Ops    int     `json:"ops"`
	// LatMS and StepCPUMS are the wall and CPU times of each timed step,
	// in order: one op (spec) or one level's AnalyzeLevel (matrix).
	LatMS     []float64 `json:"lat_ms"`
	StepCPUMS []float64 `json:"step_cpu_ms"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Workers   int       `json:"workers"`
	// Failed counts ops that errored, were quarantined or failed an
	// output check inside the child; Problems says why.
	Failed   int      `json:"failed"`
	Problems []string `json:"problems,omitempty"`
	// Digest fingerprints the ops' outputs; children with the same Inputs
	// (the same ops on the same inputs) must agree on it.
	Digest string `json:"digest"`
	Inputs string `json:"inputs"`
	// Cells are per-cell products (matrix), for the traced replay check.
	Cells map[string]cell `json:"cells,omitempty"`
	// InputsDigest fingerprints the set-up's products (matrix corpora).
	InputsDigest string `json:"inputs_digest,omitempty"`
}

func (r *childReport) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// batchSpec describes a batch workload to measureBatch.
type batchSpec struct {
	name string
	// chunks is how many children one pass over the op list takes.
	chunks int
	// minRepeats and repeatSeconds fix how many passes a run makes: at
	// least minRepeats, and about one per repeatSeconds of run length.
	// The count follows from the run length alone, never from the speed
	// measured, so a faster program is not given more repetitions to
	// take the fastest of (see fastestRepeats).
	minRepeats    int
	repeatSeconds float64
	// setups > 0 says the set-up runs in children of its own, that many,
	// before the passes; a measured round then starts from the set-up
	// child's products (matrix: the corpora) instead of setting up
	// itself. When the set-up costs more than a round (matrix: fuzzing
	// ~5 s, a round ~5 s), this leaves the run's time to repetitions of
	// the measured steps. Otherwise each child sets up for itself, and
	// setup_s is the median over all children.
	setups int
}

var (
	matrixBatch = batchSpec{name: "matrix", chunks: 1, minRepeats: 8, repeatSeconds: 2.5, setups: 2}
	specBatch   = batchSpec{name: "spec", chunks: 3, minRepeats: 3, repeatSeconds: 9}
)

// measureBatch runs the set-up children, if any, then whole passes over
// the op list, each split into spec.chunks children, as many as the run
// length asks for (see minRepeats). Rates are totals over the fastest
// repetitions of whole passes, so how the ops are split between children
// does not move them.
func measureBatch(spec batchSpec) func(*config) (*outcome, error) {
	return func(cfg *config) (*outcome, error) {
		repeats := max(spec.minRepeats, int(math.Round(cfg.seconds/spec.repeatSeconds)))
		var reps []*childReport
		for pass := 0; pass < spec.setups; pass++ {
			rep, err := runChild(cfg, pass, 0, 1, true)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		for pass := 0; pass < repeats; pass++ {
			for c := 0; c < spec.chunks; c++ {
				rep, err := runChild(cfg, pass, c, spec.chunks, false)
				if err != nil {
					return nil, err
				}
				reps = append(reps, rep)
			}
		}
		return aggregate(spec, reps), nil
	}
}

// aggregate turns the children's reports into the end-to-end metrics and
// checks that children which ran the same ops agree on their outputs.
func aggregate(spec batchSpec, reps []*childReport) *outcome {
	out := &outcome{metrics: map[string]float64{}}
	var setups []float64
	digests := map[string]string{}
	for _, r := range reps {
		// A set-up child runs no ops; a measured round that starts from
		// a set-up child's products has no set-up of its own.
		if r.SetupS > 0 {
			setups = append(setups, r.SetupS)
		}
		out.problems = append(out.problems, r.Problems...)
		d, seen := digests[r.Inputs]
		if !seen {
			digests[r.Inputs] = r.Digest
		}
		if r.Ops == 0 {
			// A set-up child: its products are one output, checked
			// against the first set-up child on the same inputs.
			if seen {
				out.attempted++
				if d != r.Digest {
					out.fail(1, "%s: two set-up children made %s differently", spec.name, r.Inputs)
				}
			}
			continue
		}
		out.attempted += r.Ops
		failed := r.Failed
		if seen && d != r.Digest {
			// Every op of the child is then in doubt; its own failures
			// are among them.
			out.fail(0, "%s: two children ran %s and produced different outputs", spec.name, r.Inputs)
			failed = r.Ops
		}
		out.failed += min(failed, r.Ops)
	}
	f := fastestRepeats(reps)
	out.metrics["setup_s"] = median(setups)
	out.metrics["ops_per_s"] = float64(f.ops) / f.wallS
	out.metrics["cpu_ms_per_op"] = 1000 * f.cpuS / float64(f.ops)
	out.metrics["peak_rss_mb"] = f.peakRSSMB
	out.metrics["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	out.metrics["p50_ms"] = quantile(f.lat, 0.5)
	out.metrics["p90_ms"] = quantile(f.lat, 0.9)
	return out
}

// fastest is one repetition of every group of children that ran the
// same inputs, each timed step and each child's peak RSS at its best
// repetition.
type fastest struct {
	ops         int
	wallS, cpuS float64
	// lat is the fastest wall time of every step in ms, group after
	// group.
	lat []float64
	// peakRSSMB is the largest over the groups of each group's smallest
	// peak RSS: how much memory the op list needs when the garbage
	// collector keeps up best.
	peakRSSMB float64
}

// fastestRepeats takes every timed step at its fastest repetition.
// Children with the same Inputs run the same steps in the same order; for
// each such group it keeps the element-wise minimum of the children's
// per-step wall (LatMS) and CPU (StepCPUMS) times, and the minimum of
// their peak RSS. A step is deterministic and repeats after the same
// steps in a fresh process, so its fastest repetition is its cost with
// the least interference from the rest of the machine, while a slower
// program is slower in every repetition. Peak RSS is the same: a child's
// peak depends on how far the heap grows while a collection runs, which
// the machine's speed moves, while a program that needs more memory
// needs it in every repetition.
func fastestRepeats(reps []*childReport) fastest {
	type group struct {
		ops       int
		wall, cpu []float64
		rss       float64
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range reps {
		if r.Ops == 0 {
			continue // a set-up child
		}
		g, ok := groups[r.Inputs]
		if !ok {
			groups[r.Inputs] = &group{ops: r.Ops, wall: slices.Clone(r.LatMS), cpu: slices.Clone(r.StepCPUMS), rss: r.PeakRSSMB}
			order = append(order, r.Inputs)
			continue
		}
		for i := range g.wall {
			g.wall[i] = min(g.wall[i], r.LatMS[i])
			g.cpu[i] = min(g.cpu[i], r.StepCPUMS[i])
		}
		g.rss = min(g.rss, r.PeakRSSMB)
	}
	var f fastest
	for _, k := range order {
		g := groups[k]
		f.ops += g.ops
		for i := range g.wall {
			f.wallS += g.wall[i] / 1000
			f.cpuS += g.cpu[i] / 1000
		}
		f.lat = append(f.lat, g.wall...)
		f.peakRSSMB = max(f.peakRSSMB, g.rss)
	}
	return f
}

// runChild runs one measured round, or with setup one set-up child, in a
// fresh process of this binary.
func runChild(cfg *config, pass, chunk, chunks int, setup bool) (*childReport, error) {
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-workdir", cfg.workdir,
		"-child-pass", fmt.Sprint(pass), "-child-chunk", fmt.Sprint(chunk), "-child-chunks", fmt.Sprint(chunks),
		fmt.Sprintf("-child-setup=%t", setup)}
	out, err := runChildProcess(args)
	if err != nil {
		return nil, err
	}
	var rep childReport
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return nil, fmt.Errorf("child %d/%d: %w", chunk, chunks, err)
	}
	return &rep, nil
}

// runChildProcess runs this binary with args, stderr passed through,
// and returns its standard output. A child that outlives its deadline
// is killed and waited for.
func runChildProcess(args []string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	return stdout.Bytes(), nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's maximum resident set size so far. It reads
// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
// so a child would report the benchmark parent's RSS whenever its own
// peak is smaller.
func peakRSSMB() float64 { return procMemMB(os.Getpid(), "VmHWM") }

// procMemMB reads a VmRSS/VmHWM-style line of a process's /proc status.
func procMemMB(pid int, field string) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// timedRegion brackets a child's measured work.
type timedRegion struct {
	t0   time.Time
	cpu0 float64
}

func startTimed() timedRegion { return timedRegion{time.Now(), cpuSeconds()} }

func (t timedRegion) stop(rep *childReport) {
	rep.TimedS = time.Since(t.t0).Seconds()
	rep.CPUS = cpuSeconds() - t.cpu0
}
