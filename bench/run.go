package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bundling"
	"bundling/client"
	"bundling/internal/cluster"
	"bundling/internal/obs"
	"bundling/internal/server"
)

// bench is what every workload run shares.
type bench struct {
	root, dir string // repository root; build and output directory
	bins      binaries
	seed      int64
	phase     time.Duration
	scales    map[string]*scaleData
}

// scale returns the workload's generated corpus: paper scale for
// evaluates, the BENCH_greedy corpus for solves. Both are fixed; the seed
// only drives lineups, patches and algorithm order.
func (b *bench) scale(wl workload) (*scaleData, error) {
	name, cfg := "bench", benchScale
	if wl.evaluates() {
		name, cfg = "paper", bundling.PaperDatasetConfig()
	}
	if sd, ok := b.scales[name]; ok {
		return sd, nil
	}
	sd, err := loadScale(cfg)
	if err != nil {
		return nil, err
	}
	b.scales[name] = sd
	return sd, nil
}

// runRecord is the context every result file carries.
type runRecord struct {
	StartedAt        string         `json:"started_at"`
	NumCPU           int            `json:"numcpu"`
	GOMAXPROCS       int            `json:"gomaxprocs"`
	DaemonGOMAXPROCS int            `json:"daemon_gomaxprocs"`
	GoVersion        string         `json:"go_version"`
	DaemonGoVersion  string         `json:"daemon_go_version"`
	GitRevision      string         `json:"git_revision"`
	GitDirty         bool           `json:"git_dirty"`
	Seed             int64          `json:"seed"`
	PhaseSeconds     float64        `json:"phase_seconds"`
	Clients          int            `json:"clients"`
	Boots            int            `json:"boots"`
	LoadavgBefore    float64        `json:"loadavg_before"`
	LoadavgAfter     float64        `json:"loadavg_after"`
	RoundReqPerS     []float64      `json:"round_req_per_s"` // wall clock
	RoundSpeed       []speedRef     `json:"round_speed"`     // the reading before each round
	Samples          map[string]int `json:"samples"`
	Warnings         []string       `json:"warnings,omitempty"`
}

// result is one workload run: the result file's schema.
type result struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Record    runRecord        `json:"record"`
	Metrics   map[string]value `json:"metrics"`
	set       metricSet
}

func (r *result) fail(msgs ...string) {
	r.Failed += len(msgs)
	for _, m := range msgs {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, m)
		}
	}
}

func (r *result) warn(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Record.Warnings = append(r.Record.Warnings, msg)
	fmt.Fprintf(os.Stderr, "bench: warning: %s: %s\n", r.Workload, msg)
}

// gitState reports the checkout's revision and whether it has local
// changes; outside a git checkout the revision is "unknown". Only a .git in
// root counts, so git never reports on a repository that encloses it.
func gitState(root string) (string, bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", false
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown", false
	}
	cmd = exec.Command("git", "status", "--porcelain")
	cmd.Dir = root
	status, err := cmd.Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}

// daemonGOMAXPROCS is what the daemons run with: they inherit the bench's
// environment, and Go 1.24 defaults GOMAXPROCS to the CPU count.
func daemonGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// runWorkload runs one workload: an untraced phase against the daemons
// (three cold boots for setup_s, the last one measured), and when traced
// also the in-process traced phase and the off-clock replays; then the
// output oracle.
func (b *bench) runWorkload(ctx context.Context, wl workload, traced bool) (*result, error) {
	rev, dirty := gitState(b.root)
	// A traced run measures as long as an untraced one: half against the
	// daemons for the scrapes, half in-process with spans.
	phase := b.phase
	if traced {
		phase /= 2
	}
	res := &result{Workload: wl.name, Trace: traced, Record: runRecord{
		StartedAt:        time.Now().UTC().Format(time.RFC3339),
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: daemonGOMAXPROCS(),
		GoVersion:        runtime.Version(),
		GitRevision:      rev,
		GitDirty:         dirty,
		Seed:             b.seed,
		PhaseSeconds:     phase.Seconds(),
		Clients:          wl.clients,
		LoadavgBefore:    loadavg(),
		Samples:          map[string]int{},
	}}
	if la := res.Record.LoadavgBefore; la > float64(runtime.NumCPU()) {
		res.warn("load average %.2f exceeds the %d CPUs at start", la, runtime.NumCPU())
	}
	dir := filepath.Join(b.dir, "runs", wl.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	sd, err := b.scale(wl)
	if err != nil {
		return nil, err
	}
	corpora := corporaFor(wl, sd)
	boots := 3
	if traced {
		boots = 1 // setup_s is reported by untraced runs only
	}
	res.Record.Boots = boots
	dp, err := b.daemonPhase(ctx, wl, sd, corpora, dir, boots, phase)
	if err != nil {
		return nil, err
	}
	res.Record.DaemonGoVersion = dp.goVersion
	res.Record.RoundReqPerS = dp.m.roundRates()
	for _, r := range dp.m.rounds {
		res.Record.RoundSpeed = append(res.Record.RoundSpeed, r.speed)
	}
	lo, hi := res.Record.RoundReqPerS[0], res.Record.RoundReqPerS[0]
	for _, r := range res.Record.RoundReqPerS {
		lo, hi = min(lo, r), max(hi, r)
	}
	if lo > 0 && hi/lo > 1.2 {
		res.warn("per-round throughput drifts: max/min %.2f over %d rounds", hi/lo, rounds)
	}
	dp.addMetrics(&res.set, wl, res.Record.Samples)
	res.Attempted = len(dp.m.ops)
	res.fail(dp.m.failures...)
	res.Failed += dp.m.failed - len(dp.m.failures)
	if err := b.check(res, wl, corpora, dp.m, dp.warm); err != nil {
		return nil, err
	}
	if traced {
		tp, err := b.tracedPhase(ctx, wl, sd, corpora, dir, phase)
		if err != nil {
			return nil, err
		}
		tp.addMetrics(&res.set, dp, res.Record.Samples)
		// The layers' self times sum to the call by construction, since the
		// client's is what the others leave; the ledger is checked against
		// the server's own timers instead.
		if msg := tp.crossCheckFailure(); msg != "" {
			res.fail(msg)
		}
		if tp.led.unjoined > 0 {
			res.fail(fmt.Sprintf("%d engine spans joined no request", tp.led.unjoined))
		}
		res.Attempted += len(tp.m.ops)
		res.fail(tp.m.failures...)
		res.Failed += tp.m.failed - len(tp.m.failures)
		if err := b.check(res, wl, corpora, tp.m, tp.warm); err != nil {
			return nil, err
		}
		if err := replay(&res.set, wl, corpora, dp.m.patches, filepath.Join(dir, "replay")); err != nil {
			return nil, err
		}
	}
	res.Record.LoadavgAfter = loadavg()
	res.Correct = res.Failed == 0
	res.Metrics = res.set.vals
	return res, nil
}

// check runs the output oracle over one phase and counts its mismatches as
// failures.
func (b *bench) check(res *result, wl workload, corpora []corpus, m merged, warm map[string]float64) error {
	if wl.evaluates() {
		bad, err := checkEvaluates(corpora, m.evals)
		if err != nil {
			return err
		}
		res.fail(bad...)
		return nil
	}
	co := corpora[0]
	for _, alg := range solveAlgorithms {
		if rev, ok := warm[alg]; ok {
			if err := checkPin(co, alg, rev); err != nil {
				res.fail(err.Error())
			}
		}
	}
	bad, err := checkWarmSolves(co, warm)
	if err != nil {
		return err
	}
	res.fail(bad...)
	bad, err = checkSolves(co, m.patches, m.solves)
	if err != nil {
		return err
	}
	res.fail(bad...)
	return nil
}

// setup uploads the workload's corpora (binary codec), waits for a fleet's
// span feeds, and sends one warm request per corpus: an evaluate, or a
// matching solve whose revenue is recorded in warm. It returns the
// generation the corpora are at.
func setup(ctx context.Context, c *client.Client, wl workload, sd *scaleData, corpora []corpus, warm map[string]float64) (int, error) {
	gen := 0
	for _, co := range corpora {
		info, err := c.UploadMatrixBin(ctx, co.id, co.w, co.opts)
		if err != nil {
			return 0, fmt.Errorf("upload %s: %w", co.id, err)
		}
		gen = info.Version
	}
	if wl.fleet {
		// Each corpus is cut into one span per worker.
		if err := waitFed(ctx, c, 2*len(corpora)); err != nil {
			return 0, err
		}
	}
	for _, co := range corpora {
		if wl.evaluates() {
			if _, err := c.Evaluate(ctx, co.id, [][]int{{sd.top[0], sd.top[1]}}); err != nil {
				return 0, fmt.Errorf("warm evaluate %s: %w", co.id, err)
			}
			continue
		}
		r, err := c.Solve(ctx, co.id, "matching")
		if err != nil {
			return 0, fmt.Errorf("warm solve %s: %w", co.id, err)
		}
		warm["matching"] = r.Config.Revenue
	}
	return gen, nil
}

// warmup readies the measured deployment off the clock: evaluate-hot
// requests every pool lineup once, so the phase is served from the cache;
// solve-* solves greedy and optimal2 on the unpatched corpus for the pins.
func warmup(ctx context.Context, c *client.Client, d *runner, warm map[string]float64) error {
	switch d.wl.kind {
	case kindHot:
		for _, l := range d.pool {
			if _, err := c.Evaluate(ctx, d.corpora[l.corpus].id, l.offers); err != nil {
				return fmt.Errorf("warm-up evaluate: %w", err)
			}
		}
	case kindSolve:
		for _, alg := range []string{"greedy", "optimal2"} {
			r, err := c.Solve(ctx, d.corpora[0].id, alg)
			if err != nil {
				return fmt.Errorf("warm-up solve %s: %w", alg, err)
			}
			warm[alg] = r.Config.Revenue
		}
	}
	return nil
}

// newRunner assembles the phase runner for a deployment at generation gen;
// paused are its daemon processes, stopped during host-speed readings.
func (b *bench) newRunner(wl workload, sd *scaleData, corpora []corpus, gen int, rec *recorder, paused []*proc) *runner {
	d := &runner{wl: wl, seed: b.seed, corpora: corpora, items: sd.top, prices: sd.prices, gen: gen, rec: rec, paused: paused}
	if wl.kind == kindHot {
		d.pool = hotPool(b.seed, sd.top, len(corpora))
	}
	return d
}

// daemonPhase is the untraced measurement against the real daemons.
type daemonPhase struct {
	setups          []time.Duration // wall clock, one per boot
	m               merged
	before, after   scrape   // bundled
	wbefore, wafter []scrape // bundleworkers
	cpu, wcpu       float64  // CPU seconds over the phase: bundled, workers
	rss, wrss       float64  // peak RSS MB: bundled, workers
	warm            map[string]float64
	goVersion       string
}

func (b *bench) daemonPhase(ctx context.Context, wl workload, sd *scaleData, corpora []corpus, dir string, boots int, phase time.Duration) (*daemonPhase, error) {
	hc, tr := newHTTPClient(nil)
	defer tr.CloseIdleConnections()
	p := &daemonPhase{warm: map[string]float64{}}
	var f *fleet
	defer func() { f.stop() }()
	gen := 0
	for i := 0; i < boots; i++ {
		f.stop()
		start := time.Now()
		var err error
		if f, err = boot(b.bins, hc, wl, filepath.Join(dir, fmt.Sprintf("boot%d", i))); err != nil {
			return nil, err
		}
		if gen, err = setup(ctx, f.c, wl, sd, corpora, p.warm); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start))
	}
	h, err := f.c.Health(ctx)
	if err != nil {
		return nil, err
	}
	p.goVersion = h.GoVersion
	d := b.newRunner(wl, sd, corpora, gen, nil, f.procs())
	if err := warmup(ctx, f.c, d, p.warm); err != nil {
		return nil, err
	}
	if p.before, err = scrapeBundled(ctx, f.c); err != nil {
		return nil, err
	}
	if p.wbefore, err = scrapeWorkers(hc, f.waddrs); err != nil {
		return nil, err
	}
	cpu0, wcpu0, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	logs, rr, err := d.phase(ctx, f.c, phase)
	if err != nil {
		return nil, err
	}
	p.m = merge(logs, rr)
	if p.after, err = scrapeBundled(ctx, f.c); err != nil {
		return nil, err
	}
	if p.wafter, err = scrapeWorkers(hc, f.waddrs); err != nil {
		return nil, err
	}
	cpu1, wcpu1, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	p.cpu, p.wcpu = cpu1-cpu0, wcpu1-wcpu0
	if p.rss, err = procHWM(f.bundled.pid()); err != nil {
		return nil, err
	}
	for _, w := range f.workers {
		mb, err := procHWM(w.pid())
		if err != nil {
			return nil, err
		}
		p.wrss += mb
	}
	return p, nil
}

// fleetCPU reads the CPU seconds of bundled and of the workers combined.
func fleetCPU(f *fleet) (bundled, workers float64, err error) {
	if bundled, err = procCPU(f.bundled.pid()); err != nil {
		return 0, 0, err
	}
	for _, w := range f.workers {
		s, err := procCPU(w.pid())
		if err != nil {
			return 0, 0, err
		}
		workers += s
	}
	return bundled, workers, nil
}

func scrapeBundled(ctx context.Context, c *client.Client) (scrape, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape bundled: %w", err)
	}
	return parseProm(text)
}

func scrapeWorkers(hc *http.Client, addrs []string) ([]scrape, error) {
	var out []scrape
	for _, a := range addrs {
		resp, err := hc.Get("http://" + a + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
		sc, err := parseProm(string(body))
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
		out = append(out, sc)
	}
	return out, nil
}

// workerService sums the workers' request-duration histograms over the
// phase: seconds served and RPCs served.
func workerService(before, after []scrape) (sec, n float64) {
	for i := range after {
		s, c := histDelta(before[i], after[i], "bundleworker_request_duration_seconds")
		sec += s
		n += c
	}
	return sec, n
}

// addMetrics derives the end-to-end metrics and the scraped ledger rows.
func (p *daemonPhase) addMetrics(s *metricSet, wl workload, samples map[string]int) {
	m := p.m
	var setups []float64
	for _, d := range p.setups {
		setups = append(setups, d.Seconds())
	}
	done := float64(m.completed())
	setup, rps := median(setups), done/m.elapsed().Seconds()
	p50, p90 := ms(percentile(m.steps, 500)), ms(percentile(m.steps, 900))
	// The times at the nominal host speed: each divided by the run's host
	// slowdown, which the boots, seconds before the phase, share.
	slow := m.slowdown()
	s.add("setup_s", setup/slow, "s")
	s.add("req_per_s", rps*slow, "req/s")
	s.add("step_ms_p50", p50/slow, "ms")
	s.add("step_ms_p90", p90/slow, "ms")
	s.add("rss_mb", p.rss+p.wrss, "MB")
	s.add("wall.setup_s", setup, "s")
	s.add("wall.req_per_s", rps, "req/s")
	s.add("wall.step_ms_p50", p50, "ms")
	s.add("wall.step_ms_p90", p90, "ms")
	s.add("host.slowdown", slow, "ratio")
	samples["step"] = len(m.steps)

	// Per-op latencies, each tail only where it has ten samples beyond it.
	for _, op := range []struct {
		name string
		tail int
	}{{"evaluate", 990}, {"solve", 900}, {"patch", 900}} {
		ds := m.opDurations(op.name)
		if len(ds) == 0 {
			continue
		}
		samples[op.name] = len(ds)
		s.add(op.name+"_ms_p50", ms(percentile(ds, 500)), "ms")
		if tailSupported(len(ds), op.tail) {
			s.add(fmt.Sprintf("%s_ms_p%d", op.name, op.tail/10), ms(percentile(ds, op.tail)), "ms")
		}
	}
	s.add("error_ratio", ratio(float64(m.failed), float64(len(m.ops))), "ratio")

	stage := func(name string) (float64, float64) {
		return histDelta(p.before, p.after, "bundled_stage_seconds", "stage", name)
	}
	reqSec, reqN := stage("request")
	var children float64
	for _, name := range []string{"queue", "batch", "solve", "mutate", "persist", "index"} {
		sec, _ := stage(name)
		children += sec
	}
	s.add("server.request_us", ratio(reqSec, reqN)*1e6, "us")
	s.add("server.self_us", ratio(reqSec-children, reqN)*1e6, "us")
	s.add("server.unattributed_us", us(m.meanDuration())-ratio(reqSec, reqN)*1e6, "us")
	s.add("server.cpu_us_per_req", ratio(p.cpu, done)*1e6, "us")
	s.add("server.heap_mb", p.after.get("bundled_heap_alloc_bytes")/(1<<20), "MB")
	s.add("server.gc_pause_ms_per_s", delta(p.before, p.after, "bundled_gc_pause_seconds")*1e3/p.m.elapsed().Seconds(), "ms/s")
	hits, misses := delta(p.before, p.after, "bundled_cache_hits_total"), delta(p.before, p.after, "bundled_cache_misses_total")
	s.add("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	batched := delta(p.before, p.after, "bundled_batched_requests_total")
	s.add("server.coalesced_ratio", ratio(delta(p.before, p.after, "bundled_coalesced_requests_total"), batched), "ratio")
	s.add("server.batch_size", ratio(batched, delta(p.before, p.after, "bundled_batches_total")), "count")
	s.add("server.shed_ratio", ratio(delta(p.before, p.after, "bundled_shed_requests_total"), float64(len(m.ops))), "ratio")
	for _, st := range []struct{ metric, stage string }{
		{"server.queue", "queue"}, {"server.batch", "batch"}, {"server.mutate", "mutate"}, {"server.persist", "persist"}, {"config.solve", "solve"},
	} {
		sec, n := stage(st.stage)
		s.add(st.metric+"_share", ratio(sec, reqSec), "ratio")
		if n > 0 {
			s.add(st.metric+"_us", sec/n*1e6, "us")
		}
	}
	solveSec, _ := stage("solve")
	priceSec, _ := stage("price_candidates")
	s.add("config.price_candidates_share", ratio(priceSec, solveSec), "ratio")
	idxSec, idxN := p.after.get("bundled_stage_seconds_sum", "stage", "index"), p.after.get("bundled_stage_seconds_count", "stage", "index")
	s.add("server.index_ms", ratio(idxSec, idxN)*1e3, "ms")
	s.add("store.disk_mb", p.after.get("bundled_store_disk_bytes")/(1<<20), "MB")

	rpcs := delta(p.before, p.after, "bundled_worker_rpcs_total")
	s.add("cluster.rpc_per_req", ratio(rpcs, done), "count")
	stale := 0.0
	for i := range p.wafter {
		stale += delta(p.wbefore[i], p.wafter[i], "bundleworker_stale_rejections_total")
	}
	s.add("cluster.stale_rejections", stale, "count")
	s.add("cluster.worker_cpu_share", ratio(p.wcpu, p.wcpu+p.cpu), "ratio")
	s.add("cluster.worker_rss_mb", p.wrss, "MB")
	s.add("cluster.feed_kb", p.after.get("bundled_feed_bytes_total")/1024, "KB")
	if wl.fleet {
		sec, n := workerService(p.wbefore, p.wafter)
		s.add("cluster.worker_service_us", ratio(sec, n)*1e6, "us")
		s.add("cluster.worker_cpu_us_per_req", ratio(p.wcpu, done)*1e6, "us")
	}
}

// tracedPhase is the in-process measurement with bench spans.
type tracedPhase struct {
	led             ledger
	m               merged
	newSolver       []time.Duration
	before, after   scrape // the in-process server's own /metrics
	wbefore, wafter []scrape
	loopbackUS      float64
	warm            map[string]float64
}

// loopback is the mean round trip, through the bench's HTTP client and off
// the clock, of a request the server answers with a 404 from its router:
// the floor under client.self_us that the spans themselves cannot show.
// (/healthz would not do: on a fleet it probes every worker.)
func loopback(hc *http.Client, base string) (float64, error) {
	const n = 500
	start := time.Now()
	for i := 0; i < n; i++ {
		resp, err := hc.Get(base + "/bench-loopback")
		if err != nil {
			return 0, fmt.Errorf("loopback: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("loopback: %w", err)
		}
	}
	return us(time.Since(start)) / n, nil
}

// crossCheck compares the ledger with timers it shares no code with, the
// in-process server's own stage timers:
//   - outside is the mean time per request that the bench's span around
//     Server.Handler() sees beyond the server's request timer, which starts
//     inside the trace middleware. It is never negative when the span is
//     where it should be.
//   - engine is how far the bench's engine spans miss the server's own
//     solve timer, as a share of the calls; NaN where the server has no
//     timer around the engine alone (evaluates run in the batcher).
func (p *tracedPhase) crossCheck() (outside, engine float64) {
	reqs := float64(p.led.requests)
	reqSec, _ := histDelta(p.before, p.after, "bundled_stage_seconds", "stage", "request")
	outside = p.led.handlerUS - ratio(reqSec*1e6, reqs)
	engine = math.NaN()
	solveSec, solveN := histDelta(p.before, p.after, "bundled_stage_seconds", "stage", "solve")
	if v, n := p.led.meanUS("solve:"); n > 0 || solveN > 0 {
		engine = ratio(v*float64(n)-solveSec*1e6, p.led.callUS*reqs)
	}
	return outside, engine
}

// crossCheckFailure reports a ledger that disagrees with the server's own
// timers: a handler span shorter than the request timer inside it (beyond
// 1% of the call, for clock granularity), or engine spans more than 5% of
// the call off the server's solve timer.
func (p *tracedPhase) crossCheckFailure() string {
	outside, engine := p.crossCheck()
	if outside < -0.01*p.led.callUS || math.Abs(engine) > 0.05 {
		return fmt.Sprintf("the traced spans disagree with the server's own timers: handler span %.1f µs beyond the request timer, engine spans off the solve timer by %.2f%% of the calls", outside, engine*100)
	}
	return ""
}

// inproc is the traced deployment: server.New with the daemon's defaults
// and a Store in a temp dir, served on loopback behind the span handler,
// plus real bundleworker processes for fleet workloads.
type inproc struct {
	hs      *http.Server
	srv     *server.Server
	store   *server.Store
	logf    *os.File
	workers []*proc
	waddrs  []string
	base    string
	once    sync.Once
}

func startInProcess(bins binaries, hc *http.Client, wl workload, rec *recorder, dir string) (*inproc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ip := &inproc{}
	var err error
	if ip.logf, err = os.Create(filepath.Join(dir, "bundled.log")); err != nil {
		return nil, err
	}
	logger, err := obs.NewLogger(ip.logf, "text", "info")
	if err != nil {
		ip.close()
		return nil, err
	}
	if ip.store, err = server.OpenStore(filepath.Join(dir, "data")); err != nil {
		ip.close()
		return nil, err
	}
	cfg := server.Config{Logger: logger, Store: ip.store}
	if wl.fleet {
		if ip.workers, ip.waddrs, err = bootWorkers(bins, hc, 2, dir); err != nil {
			ip.close()
			return nil, err
		}
		raw, err := cluster.Transports(strings.Join(ip.waddrs, ","), nil)
		if err != nil {
			ip.close()
			return nil, err
		}
		// The daemon's wrapping: breakers inside load recorders; the timing
		// transport outermost sees each RPC as the coordinator does.
		wrapped, breakers := cluster.WrapBreakers(raw, cluster.BreakerConfig{})
		loaded, loads := cluster.WrapLoad(wrapped)
		timed := make([]cluster.Transport, len(loaded))
		for i, t := range loaded {
			timed[i] = &timedTransport{t: t, rec: rec}
		}
		cfg.Fleet = cluster.NewFleet(cluster.FleetConfig{Probes: raw, Breakers: breakers, Loads: loads}).Report
		cfg.Ready = cluster.Ready(timed, 0)
		cfg.NewSolver = func(w *bundling.Matrix, opts bundling.Options) (server.Solver, error) {
			return rec.newSolver(func() (server.Solver, error) {
				return cluster.NewSolver(w, opts, cluster.Config{Workers: timed})
			})
		}
	} else {
		cfg.NewSolver = func(w *bundling.Matrix, opts bundling.Options) (server.Solver, error) {
			return rec.newSolver(func() (server.Solver, error) {
				return bundling.NewSolver(w, opts)
			})
		}
	}
	ip.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ip.close()
		return nil, err
	}
	ip.base = "http://" + ln.Addr().String()
	ip.hs = &http.Server{Handler: rec.handler(ip.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = ip.hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return ip, nil
}

// close shuts the deployment down and waits for every process; safe to
// call more than once.
func (ip *inproc) close() {
	ip.once.Do(func() {
		if ip.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			_ = ip.hs.Shutdown(ctx) // a drain timeout leaves nothing to report
			cancel()
		}
		if ip.srv != nil {
			ip.srv.Close()
		}
		if ip.store != nil {
			if err := ip.store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bench: traced store close:", err)
			}
		}
		for _, w := range ip.workers {
			w.stop()
		}
		if ip.logf != nil {
			ip.logf.Close()
		}
	})
}

func (b *bench) tracedPhase(ctx context.Context, wl workload, sd *scaleData, corpora []corpus, dir string, phase time.Duration) (*tracedPhase, error) {
	rec := newRecorder()
	hc, tr := newHTTPClient(func(rt http.RoundTripper) http.RoundTripper { return spanTransport{next: rt} })
	defer tr.CloseIdleConnections()
	ip, err := startInProcess(b.bins, hc, wl, rec, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, err
	}
	defer ip.close()
	c := client.New(ip.base, hc)
	p := &tracedPhase{warm: map[string]float64{}}
	gen, err := setup(ctx, c, wl, sd, corpora, p.warm)
	if err != nil {
		return nil, err
	}
	// The traced server shares this process, so only the workers pause.
	d := b.newRunner(wl, sd, corpora, gen, rec, ip.workers)
	if err := warmup(ctx, c, d, p.warm); err != nil {
		return nil, err
	}
	if p.wbefore, err = scrapeWorkers(hc, ip.waddrs); err != nil {
		return nil, err
	}
	if p.before, err = scrapeBundled(ctx, c); err != nil {
		return nil, err
	}
	rec.on.Store(true)
	logs, rr, err := d.phase(ctx, c, phase)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	p.m = merge(logs, rr)
	if p.after, err = scrapeBundled(ctx, c); err != nil {
		return nil, err
	}
	if p.wafter, err = scrapeWorkers(hc, ip.waddrs); err != nil {
		return nil, err
	}
	if p.loopbackUS, err = loopback(hc, ip.base); err != nil {
		return nil, err
	}
	ip.close()
	p.led = rec.analyze()
	rec.mu.Lock()
	p.newSolver = append([]time.Duration(nil), rec.builds...)
	rec.mu.Unlock()
	if err := rec.writeJSONL(filepath.Join(dir, "trace.jsonl")); err != nil {
		return nil, err
	}
	return p, nil
}

// addMetrics derives the traced ledger rows; dp is the same run's untraced
// phase, the baseline of the tracing overhead.
func (p *tracedPhase) addMetrics(s *metricSet, dp *daemonPhase, samples map[string]int) {
	led := p.led
	// Both throughputs at the nominal host speed, so host drift between the
	// two halves of the run does not read as tracing overhead.
	rps := float64(p.m.completed()) / p.m.elapsed().Seconds() * p.m.slowdown()
	base := float64(dp.m.completed()) / dp.m.elapsed().Seconds() * dp.m.slowdown()
	samples["traced_requests"] = led.requests
	s.add("trace.req_per_s", rps, "req/s")
	s.add("trace.call_us", led.callUS, "us")
	s.add("trace.overhead_pct", ratio(base-rps, base)*100, "%")
	outside, eng := p.crossCheck()
	s.add("server.outside_timer_us", outside, "us")
	if !math.IsNaN(eng) {
		s.add("trace.engine_check_pct", eng*100, "%")
	}
	s.add("client.self_us", led.clientSelf, "us")
	s.add("client.loopback_us", p.loopbackUS, "us")
	s.add("server.handler_us", led.handlerUS, "us")
	s.add("server.handler_self_us", led.handlerSelf, "us")
	s.add("config.self_share", ratio(led.configSelf, led.callUS), "ratio")
	s.add("cluster.self_share", ratio(led.clusterSelf, led.callUS), "ratio")
	var builds []float64
	for _, d := range p.newSolver {
		builds = append(builds, ms(d))
	}
	s.add("config.new_solver_ms", median(builds), "ms")
	if v, n := led.meanUS("evaluate"); n > 0 {
		s.add("config.evaluate_us", v, "us")
	}
	for _, alg := range solveAlgorithms {
		if v, n := led.meanUS("solve:" + alg); n > 0 {
			s.add("config.solve_ms."+alg, v/1e3, "ms")
		}
	}
	if v, n := led.meanUS("apply_delta"); n > 0 {
		s.add("config.apply_delta_us", v, "us")
	}
	var rpcSum float64
	var rpcN int
	for _, op := range []string{"vector", "union", "stats", "hist", "assign"} {
		v, n := led.meanUS(op)
		rpcSum += v * float64(n)
		rpcN += n
	}
	if rpcN > 0 {
		rpc := rpcSum / float64(rpcN)
		sec, n := workerService(p.wbefore, p.wafter)
		s.add("cluster.rpc_us", rpc, "us")
		s.add("cluster.transport_us", rpc-ratio(sec, n)*1e6, "us")
		s.add("cluster.transport_share", ratio(rpc-ratio(sec, n)*1e6, rpc), "ratio")
	} else {
		s.add("cluster.transport_share", 0, "ratio")
	}
}

// replay times the workload's upload and patch payloads off the clock
// through the codec, the Store and the engine.
func replay(s *metricSet, wl workload, corpora []corpus, patches [][]bundling.DeltaCell, dir string) error {
	co := corpora[0]
	doc := bundling.NewMatrixDoc(co.w)
	const reps = 5
	var enc, dec, put []float64
	var bin []byte
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if bin, err = doc.MarshalBinary(); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		enc = append(enc, ms(time.Since(t0)))
		var back bundling.MatrixDoc
		t0 = time.Now()
		if err := back.UnmarshalBinary(bin); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		dec = append(dec, ms(time.Since(t0)))
	}
	s.add("codec.matrix_encode_ms", median(enc), "ms")
	s.add("codec.matrix_decode_ms", median(dec), "ms")
	s.add("codec.upload_kb", float64(len(bin))/1024, "KB")

	st, err := server.OpenStore(dir)
	if err != nil {
		return err
	}
	opts := server.NewOptionsDoc(co.opts)
	gen := 0
	for i := 0; i < reps; i++ {
		gen++
		rec := server.CorpusRecord{ID: co.id, Generation: gen, CreatedAt: time.Now().UTC(), Options: opts, Matrix: doc, Entries: co.w.Entries()}
		t0 := time.Now()
		if err := st.Put(rec); err != nil {
			st.Close()
			return fmt.Errorf("replay put: %w", err)
		}
		put = append(put, ms(time.Since(t0)))
	}
	s.add("store.put_ms", median(put), "ms")
	if wl.kind == kindSolve && len(patches) > 0 {
		var total time.Duration
		n := min(len(patches), 64)
		for _, cells := range patches[:n] {
			rec := server.CorpusRecord{ID: co.id, Generation: gen + 1, BaseGeneration: gen, CreatedAt: time.Now().UTC(), Options: opts, Cells: cells, Entries: co.w.Entries()}
			t0 := time.Now()
			if err := st.PutDelta(rec); err != nil {
				st.Close()
				return fmt.Errorf("replay put delta: %w", err)
			}
			total += time.Since(t0)
			gen++
		}
		s.add("store.put_delta_us", us(total/time.Duration(n)), "us")
	}
	if err := st.Close(); err != nil {
		return err
	}
	if wl.kind == kindSolve {
		speedup, err := parallelSpeedup(co)
		if err != nil {
			return err
		}
		s.add("config.parallel_speedup", speedup, "ratio")
	}
	return nil
}

// parallelSpeedup is the wall time of one solve per algorithm with one
// pricing worker over the same with two.
func parallelSpeedup(co corpus) (float64, error) {
	var t [2]time.Duration
	for i, par := range []int{1, 2} {
		opts := co.opts
		opts.Parallelism = par
		s, err := bundling.NewSolver(co.w, opts)
		if err != nil {
			return 0, err
		}
		for _, name := range solveAlgorithms {
			alg, err := bundling.AlgorithmByName(name)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := s.Solve(alg); err != nil {
				return 0, err
			}
			t[i] += time.Since(t0)
		}
	}
	return ratio(float64(t[0]), float64(t[1])), nil
}
