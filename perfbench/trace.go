package perfbench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// tracer records spans around calls into the program's layers. Spans are
// kept in memory and written out once, at the end of the traced run. A
// layer's CPU and allocation figures are self figures: a span's own
// deltas minus those of the spans nested in it. The traced replays run
// on one goroutine, so process-wide deltas belong to the open span.
type tracer struct {
	t0    time.Time
	open  []*openSpan
	spans []spanRecord
	cpu   map[string]float64 // self CPU seconds per layer
	wall  map[string]float64 // self wall seconds per layer
	alloc map[string]float64 // self allocated bytes per layer
	// n holds the layer counts (codegen.instrs, tuner.cells, ...).
	n map[string]float64

	samples []metrics.Sample
}

type openSpan struct {
	layer                           string
	start                           time.Time
	cpu0, alloc0                    float64
	childCPU, childWall, childAlloc float64
}

type spanRecord struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		cpu:     map[string]float64{},
		wall:    map[string]float64{},
		alloc:   map[string]float64{},
		n:       map[string]float64{},
		samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() float64 {
	metrics.Read(t.samples)
	return float64(t.samples[0].Value.Uint64())
}

// span runs fn inside a span of the named layer.
func (t *tracer) span(layer string, fn func()) {
	s := &openSpan{layer: layer, start: time.Now(), cpu0: cpuSeconds(), alloc0: t.allocBytes()}
	t.open = append(t.open, s)
	fn()
	wall := time.Since(s.start).Seconds()
	cpu, alloc := cpuSeconds()-s.cpu0, t.allocBytes()-s.alloc0
	t.open = t.open[:len(t.open)-1]
	if n := len(t.open); n > 0 {
		t.open[n-1].childCPU += cpu
		t.open[n-1].childWall += wall
		t.open[n-1].childAlloc += alloc
	}
	t.cpu[layer] += cpu - s.childCPU
	t.wall[layer] += wall - s.childWall
	t.alloc[layer] += alloc - s.childAlloc
	t.spans = append(t.spans, spanRecord{
		Name: layer, Ph: "X", PID: 1, TID: len(t.open),
		TS:  float64(s.start.Sub(t.t0).Microseconds()),
		Dur: wall * 1e6,
	})
}

// layerMetrics copies the tracer's per-layer CPU, allocation and counts
// into m under the metric names.
func (t *tracer) layerMetrics(m map[string]float64) {
	for _, l := range []string{"frontend", "corpus", "passes", "codegen", "debugger", "metrics",
		"vm"} {
		m[l+".cpu_ms"] = t.cpuMS(l)
	}
	for _, l := range []string{"corpus", "passes", "codegen", "vm"} {
		m[l+".alloc_mb"] = t.allocMB(l)
	}
	for k, v := range t.n {
		m[k] = v
	}
}

func (t *tracer) cpuMS(layer string) float64   { return 1000 * t.cpu[layer] }
func (t *tracer) allocMB(layer string) float64 { return t.alloc[layer] / (1 << 20) }

// totalCPU sums the self CPU of the named layers, in seconds.
func (t *tracer) totalCPU(layers ...string) float64 {
	s := 0.0
	for _, l := range layers {
		s += t.cpu[l]
	}
	return s
}

// write saves the spans as a Chrome trace-event file in the scratch
// directory.
func (t *tracer) write(cfg *config) error {
	b, err := json.Marshal(map[string]any{"traceEvents": t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, b, 0o644)
}

// runtimeStats reads the Go runtime's allocation and GC totals.
type runtimeStats struct{ allocBytes, gcCycles, gcCPU, totalCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: float64(s[0].Value.Uint64()), gcCycles: float64(s[1].Value.Uint64()),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

// runtimeMetrics fills the runtime.* metrics with the deltas since r0.
func runtimeMetrics(m map[string]float64, r0 runtimeStats) {
	r1 := readRuntime()
	m["runtime.alloc_mb"] = (r1.allocBytes - r0.allocBytes) / (1 << 20)
	m["runtime.gc_count"] = r1.gcCycles - r0.gcCycles
	if d := r1.totalCPU - r0.totalCPU; d > 0 {
		m["runtime.gc_cpu_frac"] = (r1.gcCPU - r0.gcCPU) / d
	}
}
