package perfbench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"debugtuner/internal/api"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/serve"
	"debugtuner/internal/tuner"
	"debugtuner/internal/workerpool"
)

const (
	// rateRPS is the offered rate of the open-loop phase that p50 and p90
	// come from: under a third of the capacity (~28 rps with two
	// connections on 2 CPUs), so latency is mostly service time; at half
	// the capacity queueing made p90 swing with the host's speed.
	rateRPS = 8
	// limitMS is the latency over which an open-loop request fails.
	limitMS = 1000
	// serveRounds is how many fresh tunerds a run measures in turn, each
	// on an empty cache directory and on the same seeded traffic. Every
	// open-loop request and every closed-loop phase counts at its best
	// round, as the batch workloads take each step at its fastest
	// repetition (see fastestRepeats): a shared machine's speed moves
	// from second to second, while a slower server is slower in every
	// round.
	serveRounds = 3
	// openShare is one round's open-loop phase as a share of the run
	// (48 requests at 20 s, so p90 has about five beyond it).
	openShare = 0.3
	// closedPerSecond is the closed-loop phase's request count per
	// second of run (60 at 20 s, ~2.5 s of work on 2 CPUs). The phase
	// sends a fixed list of requests as fast as answers come back, so
	// its length, unlike its request count, follows the server's speed.
	closedPerSecond = 3
	// capacityScheduleRPS only spaces the repeats of the closed-loop
	// phase's list.
	capacityScheduleRPS = 60
	// repeatShare is the share of requests that repeat an earlier body
	// and are answered from the response cache; the rest carry a new
	// body and take the cold path. It is under half because at half p50
	// falls between the hit latency (a few ms) and the cold one (~60 ms)
	// and swings across the gap from run to run.
	repeatShare = 0.4
	// repeatGap is how long after a body's first send it may be
	// repeated, so that the repeat finds the response cached rather than
	// coalescing onto a computation still running.
	repeatGap = time.Second
)

// tunerdProc is a running tunerd child.
type tunerdProc struct {
	cmd  *exec.Cmd
	addr string
}

// startTunerd spawns tunerd on an ephemeral port with the given cache
// directory and returns once /healthz answers, with the time that took.
func startTunerd(cfg *config, cachedir string) (*tunerdProc, float64, error) {
	t0 := time.Now()
	cmd := exec.Command(cfg.tunerd, "-addr", "127.0.0.1:0", "-cachedir", cachedir,
		"-j", strconv.Itoa(runtime.NumCPU()), "-drain-grace", "1ms")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("tunerd: %w", err)
	}
	p := &tunerdProc{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "tunerd listening on "); ok {
			p.addr = a
			break
		}
	}
	// Keep draining stdout so tunerd never blocks writing to it; the copy
	// ends when the process exits and closes the pipe.
	go io.Copy(io.Discard, stdout)
	if p.addr == "" {
		p.kill()
		return nil, 0, fmt.Errorf("tunerd did not report its address")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, 0, fmt.Errorf("tunerd /healthz did not answer")
		}
	}
	return p, time.Since(t0).Seconds(), nil
}

func (p *tunerdProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// stop drains tunerd with SIGTERM and waits for it (killing it after ten
// seconds).
func (p *tunerdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// cpuSeconds reads tunerd's user+sys CPU time from /proc.
func (p *tunerdProc) cpuSeconds() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// memMB reads a VmRSS/VmHWM-style line of tunerd's /proc status.
func (p *tunerdProc) memMB(field string) float64 { return procMemMB(p.cmd.Process.Pid, field) }

// bodyGen produces the seeded /v1/tune bodies. Distinct bodies are one
// small unit each, the same program shape with seeded constants, so a
// cold request costs about the same whatever the seed.
type bodyGen struct {
	seed   int64
	rng    *rand.Rand
	bodies [][]byte
	// sent holds bodies of finished phases, free to repeat.
	sent []int
}

func newBodyGen(seed int64) *bodyGen {
	return &bodyGen{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (g *bodyGen) newBody() int {
	k := len(g.bodies)
	r := rand.New(rand.NewSource(g.seed*1_000_003 + int64(k)))
	src := fmt.Sprintf(unitTemplate,
		[]int{2654435761, 40503, 2246822519, 3266489917}[r.Intn(4)], 256<<r.Intn(3),
		97+r.Intn(900), 1+r.Intn(9), 48+r.Intn(32), 1+r.Intn(1_000_000))
	req := &api.TuneRequest{V: api.Version, Profile: "gcc", Level: "O2",
		Units: []api.Unit{{Name: fmt.Sprintf("unit%d", k), Source: src}}}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data always marshals
	}
	g.bodies = append(g.bodies, b)
	return k
}

const unitTemplate = `var tab: int[] = new int[64];
var acc: int = 0;

func mix(x: int): int {
	var h: int = x * %d;
	h = h ^ (h / %d);
	return h;
}

func fill(n: int, seed: int): int {
	var s: int = seed;
	for (var i: int = 0; i < n; i = i + 1) {
		s = mix(s + i);
		if (s < 0) {
			s = 0 - s;
		}
		tab[i & 63] = s %% %d;
	}
	return s;
}

func scan(n: int, w: int): int {
	var best: int = 0;
	var sum: int = 0;
	for (var i: int = 0; i < n; i = i + 1) {
		var v: int = tab[i];
		if (v > best) {
			best = v;
		}
		sum = sum + v * w;
	}
	return sum + best;
}

func main() {
	acc = fill(%[5]d, %[6]d);
	acc = acc + scan(64, %[4]d);
	print(acc);
}
`

type request struct {
	body int // index into bodyGen.bodies
	cold bool
	due  time.Duration // from the phase start
}

// schedule is an open-loop phase at a fixed rate. Request i repeats a
// body sent at least repeatGap earlier when floor((i+1)*repeatShare)
// steps past floor(i*repeatShare), which spreads the repeats evenly;
// the remaining requests carry a new body.
func (g *bodyGen) schedule(rate, seconds float64) []request {
	n := int(math.Round(rate * seconds))
	var reqs []request
	var colds []int // indices into reqs
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if math.Floor(float64(i+1)*repeatShare) > math.Floor(float64(i)*repeatShare) {
			eligible := len(g.sent)
			for _, c := range colds {
				if reqs[c].due+repeatGap <= due {
					eligible++
				}
			}
			if eligible > 0 {
				j := g.rng.Intn(eligible)
				body := 0
				if j < len(g.sent) {
					body = g.sent[j]
				} else {
					body = reqs[colds[j-len(g.sent)]].body
				}
				reqs = append(reqs, request{body: body, due: due})
				continue
			}
		}
		reqs = append(reqs, request{body: g.newBody(), cold: true, due: due})
		colds = append(colds, len(reqs)-1)
	}
	return reqs
}

// finish marks a phase's bodies as available for repeats.
func (g *bodyGen) finish(reqs []request) {
	for _, r := range reqs {
		if r.cold {
			g.sent = append(g.sent, r.body)
		}
	}
}

type reply struct {
	sent   bool
	latMS  float64 // open loop: from the due time; closed loop: from the send
	lateMS float64 // how late the generator dispatched it (open loop)
	status int
	body   []byte
	err    error
	done   time.Time
}

func (r reply) ok() bool { return r.sent && r.err == nil && r.status == http.StatusOK }

// runPhase sends the schedule over at most conns connections. Open loop:
// each request is dispatched at its due time and waits for a free
// connection; its latency counts from the due time, so a stall is
// charged to every request it delays. Closed loop: every connection sends
// its next request as soon as the last one is answered.
func runPhase(p *tunerdProc, g *bodyGen, reqs []request, conns int, closed bool) []reply {
	client := &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()
	url := "http://" + p.addr + "/v1/tune"
	replies := make([]reply, len(reqs))
	jobs := make(chan int, len(reqs)) // one slot per request: dispatch never blocks
	done := make(chan struct{})
	start := time.Now()
	for c := 0; c < conns; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range jobs {
				r := &replies[i]
				from := start.Add(reqs[i].due)
				if closed {
					from = time.Now()
				}
				r.sent = true
				resp, err := client.Post(url, "application/json", bytes.NewReader(g.bodies[reqs[i].body]))
				if err == nil {
					r.status = resp.StatusCode
					r.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				r.err = err
				r.done = time.Now()
				r.latMS = msSince(from)
			}
		}()
	}
	for i := range reqs {
		if !closed {
			due := start.Add(reqs[i].due)
			time.Sleep(time.Until(due))
			replies[i].lateMS = msSince(due)
		}
		jobs <- i
	}
	close(jobs)
	for c := 0; c < conns; c++ {
		<-done
	}
	g.finish(reqs)
	return replies
}

func latencies(rs []reply) (lat, late []float64) {
	for _, r := range rs {
		if r.sent {
			lat = append(lat, r.latMS)
			late = append(late, r.lateMS)
		}
	}
	return lat, late
}

// serveSession is one measured tunerd lifetime: warm-up, then the
// open-loop phase, with every response kept for the checks.
type serveSession struct {
	cfg    *config
	p      *tunerdProc
	g      *bodyGen
	conns  int
	setups []float64 // spawn times, in seconds
	// first holds each body's first response; sessions of one run share
	// it, so a body must get the same bytes from every tunerd.
	first map[int][]byte
	out   *outcome
}

// phase runs a schedule (see runPhase) and checks every response: a
// 200, and the same bytes as the body's first response. countLate also
// fails requests over the latency limit.
func (s *serveSession) phase(reqs []request, closed, countLate bool) []reply {
	rs := runPhase(s.p, s.g, reqs, s.conns, closed)
	for i, r := range rs {
		if !r.sent {
			continue
		}
		s.out.attempted++
		switch {
		case !r.ok():
			s.out.fail(1, "serve: body %d: status %d, %v", reqs[i].body, r.status, r.err)
		case countLate && r.latMS > limitMS:
			s.out.fail(1, "serve: body %d: %.0f ms over the %d ms limit", reqs[i].body, r.latMS, limitMS)
		}
	}
	for i, r := range rs {
		if !r.ok() {
			continue
		}
		if w, ok := s.first[reqs[i].body]; !ok {
			s.first[reqs[i].body] = r.body
		} else if !bytes.Equal(w, r.body) {
			s.out.fail(1, "serve: body %d: response differs from the body's first", reqs[i].body)
		}
	}
	return rs
}

// newServeSession spawns four throwaway tunerds and then the measured
// one, each on an empty cache directory, and keeps their spawn times for
// setup_s.
func newServeSession(cfg *config, dir string, first map[int][]byte, out *outcome) (*serveSession, error) {
	s := &serveSession{cfg: cfg, g: newBodyGen(cfg.seed), conns: runtime.NumCPU(), first: first, out: out}
	for i := 0; i < 5; i++ {
		p, t, err := startTunerd(cfg, filepath.Join(dir, fmt.Sprintf("cache%d", i)))
		if err != nil {
			return nil, err
		}
		s.setups = append(s.setups, t)
		if i < 4 {
			p.kill()
		} else {
			s.p = p
		}
	}
	return s, nil
}

// warmUp sends one second of traffic on bodies of its own, so lazy
// start-up cost stays out of the measured phases and repeats have
// bodies to draw on from the start.
func (s *serveSession) warmUp() { s.phase(s.g.schedule(rateRPS, 1), false, false) }

// open is the open-loop phase at rateRPS that p50 and p90 come from.
func (s *serveSession) open() ([]request, []reply) {
	reqs := s.g.schedule(rateRPS, openShare*s.cfg.seconds)
	return reqs, s.phase(reqs, false, true)
}

// serveRound is what one tunerd lifetime measured.
type serveRound struct {
	setups   []float64
	openMS   []float64 // each open-loop request's latency
	lateMS   []float64
	cpuMS    float64 // tunerd CPU per open-loop request
	rssMB    float64 // tunerd's peak RSS after the open-loop phase
	closedS  float64 // wall time of the closed-loop phase
	closedOK int
}

// serveOneRound runs one tunerd on a fresh cache directory through the
// warm-up, the open-loop phase and the closed-loop phase. Each round
// starts a new body generator on the run's seed, so every round sends
// the same requests in the same order.
func serveOneRound(cfg *config, dir string, first map[int][]byte, out *outcome) (*serveSession, serveRound, error) {
	var r serveRound
	s, err := newServeSession(cfg, dir, first, out)
	if err != nil {
		return nil, r, err
	}
	defer s.p.stop()
	r.setups = s.setups
	s.warmUp()
	cpu0 := s.p.cpuSeconds()
	_, rs := s.open()
	r.cpuMS = 1000 * (s.p.cpuSeconds() - cpu0) / float64(len(rs))
	for _, x := range rs {
		r.openMS = append(r.openMS, x.latMS)
		r.lateMS = append(r.lateMS, x.lateMS)
	}
	// The peak after a fixed amount of work, before the closed loop.
	r.rssMB = s.p.memMB("VmHWM")

	n := closedPerSecond * cfg.seconds
	start := time.Now()
	rs = s.phase(s.g.schedule(capacityScheduleRPS, n/capacityScheduleRPS), true, false)
	r.closedS = time.Since(start).Seconds()
	for _, x := range rs {
		if x.ok() {
			r.closedOK++
		}
	}
	return s, r, nil
}

func measureServe(cfg *config) (*outcome, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := &outcome{metrics: map[string]float64{}}
	first := map[int][]byte{}
	var rounds []serveRound
	var s *serveSession
	for i := 0; i < serveRounds; i++ {
		var r serveRound
		s, r, err = serveOneRound(cfg, filepath.Join(dir, fmt.Sprint(i)), first, out)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}

	// Each open-loop request at its best round, as fastestRepeats does
	// for batch steps; the rest at the best round too.
	best := slices.Clone(rounds[0].openMS)
	var setups, late []float64
	m := out.metrics
	m["cpu_ms_per_op"], m["peak_rss_mb"] = math.Inf(1), math.Inf(1)
	for _, r := range rounds {
		for i := range best {
			best[i] = min(best[i], r.openMS[i])
		}
		setups = append(setups, r.setups...)
		late = append(late, r.lateMS...)
		m["cpu_ms_per_op"] = min(m["cpu_ms_per_op"], r.cpuMS)
		m["peak_rss_mb"] = min(m["peak_rss_mb"], r.rssMB)
		m["ops_per_s"] = max(m["ops_per_s"], float64(r.closedOK)/r.closedS)
	}
	m["setup_s"] = median(setups)
	m["p50_ms"] = quantile(best, 0.5)
	m["p90_ms"] = quantile(best, 0.9)
	m["loadgen.late_ms"] = quantile(late, 0.9)
	s.checkInProcess(3)
	m["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	return out, nil
}

// checkInProcess recomputes a seeded sample of distinct bodies with
// serve.Service.Tune in this process; the bytes must equal tunerd's.
func (s *serveSession) checkInProcess(n int) {
	var keys []int
	for k := range s.first {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if len(keys) == 0 {
		s.out.fail(1, "serve: no distinct body was answered")
		return
	}
	rng := rand.New(rand.NewSource(s.cfg.seed))
	sv := &serve.Service{}
	for i := 0; i < n; i++ {
		k := keys[rng.Intn(len(keys))]
		got, err := tuneInProcess(sv, s.g.bodies[k])
		s.out.attempted++
		if err != nil || !bytes.Equal(got, s.first[k]) {
			s.out.fail(1, "serve: body %d: tunerd's response differs from serve.Service.Tune in-process (%v)", k, err)
		}
	}
}

func tuneInProcess(sv *serve.Service, body []byte) ([]byte, error) {
	req, aerr := api.DecodeTuneRequest(bytes.NewReader(body))
	if aerr != nil {
		return nil, aerr
	}
	res, err := sv.Tune(req)
	if err != nil {
		return nil, err
	}
	return api.MarshalEnvelope(&api.Envelope{Kind: "tune", Tune: res})
}

// tracedServe runs the open-loop phase against tunerd for its counters
// and memory, then recomputes the phase's distinct bodies in-process with
// the codec, Service.Tune, the disk cache and the matrix layers in spans
// of their own.
func tracedServe(cfg *config) (*outcome, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := newServeSession(cfg, dir, map[int][]byte{}, &outcome{metrics: map[string]float64{}})
	if err != nil {
		return nil, err
	}
	defer s.p.stop()
	m := s.out.metrics

	client := api.NewClient(s.p.addr)
	s.warmUp()
	before, err := client.Counters()
	if err != nil {
		return nil, err
	}
	rss0 := s.p.memMB("VmRSS")
	cpu0 := s.p.cpuSeconds()
	t0 := time.Now()
	fixedReqs, rs := s.open()
	phaseWall := time.Since(t0).Seconds()
	serverCPU := s.p.cpuSeconds() - cpu0
	after, err := client.Counters()
	if err != nil {
		return nil, err
	}
	d := func(k string) float64 { return float64(after[k] - before[k]) }
	if n := d("tunerd.cache.hit") + d("tunerd.cache.miss") + d("tunerd.cache.coalesced"); n > 0 {
		m["evalcache.hit_ratio"] = d("tunerd.cache.hit") / n
	}
	m["serve.rejected"] = d("tunerd.rejected")
	m["serve.rss_growth_mb"] = s.p.memMB("VmRSS") - rss0
	_, late := latencies(rs)
	m["loadgen.late_ms"] = quantile(late, 0.9)

	workerpool.SetWorkers(1)
	t := newTracer()
	r0 := readRuntime()
	sv := &serve.Service{}
	disk, err := evalcache.OpenDisk(filepath.Join(dir, "disk"))
	if err != nil {
		return nil, err
	}
	var compute, overhead []float64
	var units []api.Unit
	for i, req := range fixedReqs {
		if !req.cold || !rs[i].ok() || len(units) >= 40 {
			continue
		}
		var tr *api.TuneRequest
		var aerr *api.Error
		t.span("api", func() { tr, aerr = api.DecodeTuneRequest(bytes.NewReader(s.g.bodies[req.body])) })
		if aerr != nil {
			return nil, aerr
		}
		units = append(units, tr.Units...)
		var res *api.TuneResult
		w0 := time.Now()
		t.span("serve", func() { res, err = sv.Tune(tr) })
		ms := msSince(w0)
		compute = append(compute, ms)
		overhead = append(overhead, rs[i].latMS-ms)
		if err != nil {
			return nil, err
		}
		var b []byte
		t.span("api", func() { b, err = api.MarshalEnvelope(&api.Envelope{Kind: "tune", Tune: res}) })
		s.out.attempted++
		if err != nil || !bytes.Equal(b, rs[i].body) {
			s.out.fail(1, "serve: body %d: tunerd's response differs from serve.Service.Tune in-process", req.body)
		}
		t.span("evalcache.put", func() {
			disk.Put(fmt.Sprintf("body%d", req.body), struct {
				Status int
				Body   []byte
			}{http.StatusOK, b})
		})
	}
	m["serve.compute_ms"] = median(compute)
	m["serve.overhead_ms"] = median(overhead)
	if n := float64(len(compute)); n > 0 {
		m["api.codec_ms"] = 1000 * t.wall["api"] / n
		m["evalcache.disk_put_ms"] = 1000 * t.wall["evalcache.put"] / n
	}

	// The cold bodies' AnalyzeLevel, layer by layer.
	var progs []*tuner.Program
	for _, u := range units {
		var p *tuner.Program
		t.span("frontend", func() { p, err = tuner.LoadProgram(u.Name, []byte(u.Source), nil) })
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	layers := []string{"frontend", "passes", "codegen", "debugger", "metrics"}
	w0 := time.Now()
	if err := replayCells(t, progs, []level{{"gcc", "O2"}}, nil, s.out); err != nil {
		return nil, err
	}
	replayWall := time.Since(w0).Seconds()
	t.layerMetrics(m)
	m["workerpool.utilization"] = serverCPU / (phaseWall * float64(runtime.NumCPU()))
	if t.cpu["serve"] > 0 {
		m["trace.coverage"] = t.totalCPU(layers...) / t.cpu["serve"]
		m["trace.overhead_pct"] = 100 * (replayWall/t.wall["serve"] - 1)
	}
	runtimeMetrics(m, r0)
	return s.out, t.write(cfg)
}
