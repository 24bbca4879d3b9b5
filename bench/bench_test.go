package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func readScrape(t *testing.T, path string) scrape {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := parseProm(string(buf))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return sc
}

// The fixtures are /metrics bodies captured from a bundled coordinator
// with one bundleworker, before and after four evaluates (one a cache hit)
// and an optimal2 solve.
func TestPromParseAndDeltas(t *testing.T) {
	before := readScrape(t, "testdata/bundled_before.prom")
	after := readScrape(t, "testdata/bundled_after.prom")
	wbefore := readScrape(t, "testdata/worker_before.prom")
	wafter := readScrape(t, "testdata/worker_after.prom")

	if got := delta(before, after, "bundled_cache_hits_total"); got != 1 {
		t.Errorf("cache hits delta = %g, want 1", got)
	}
	if got := after.get("bundled_feed_bytes_total", "codec", "bin"); got != 10143 {
		t.Errorf("labeled counter = %g, want 10143", got)
	}
	if got := after.get("bundled_heap_alloc_bytes"); got != 3.145856e+06 {
		t.Errorf("exponent gauge = %g", got)
	}
	sec, n := histDelta(before, after, "bundled_stage_seconds", "stage", "request")
	if n != 5 || math.Abs(sec-(0.259242933-0.001273306)) > 1e-12 {
		t.Errorf("request stage delta = %g s over %g, want 0.257969627 over 5", sec, n)
	}
	if sec, n := histDelta(before, after, "bundled_stage_seconds", "stage", "solve"); n != 1 || sec != 0.25488447 {
		t.Errorf("a stage absent before counts from zero: %g over %g", sec, n)
	}
	// Every coordinator RPC is one worker request: the two sides agree.
	rpcs := delta(before, after, "bundled_worker_rpcs_total")
	wsec, wn := workerService([]scrape{wbefore}, []scrape{wafter})
	if rpcs != 1779 || wn != rpcs {
		t.Errorf("coordinator RPCs %g, worker requests %g, want 1779 each", rpcs, wn)
	}
	want := (0.000165732 + 9.1403e-05 + 4.1123e-05 + 0.009032626) - (0.000165732 + 1.7529e-05 + 7.946e-06)
	if math.Abs(wsec-want) > 1e-12 {
		t.Errorf("worker service seconds = %g, want %g", wsec, want)
	}
	if got := wafter.get("bundleworker_stale_rejections_total"); got != 0 {
		t.Errorf("stale rejections = %g", got)
	}

	sc, err := parseProm("# HELP x y\nx{a=\"q\\\"uote\",b=\"2\"} 3\nx{a=\"other\"} 4\nplain 1e-3\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.get("x", "a", `q"uote`); got != 3 {
		t.Errorf("escaped label match = %g, want 3", got)
	}
	if got := sc.get("x"); got != 7 {
		t.Errorf("unfiltered sum = %g, want 7", got)
	}
	if got := sc.get("plain"); got != 1e-3 {
		t.Errorf("plain = %g", got)
	}
	for _, bad := range []string{"novalue", "x{a=\"1\" 2", "x{a} 1", "x 1.2.3"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		permille int
		want     time.Duration
	}{{500, 50 * time.Millisecond}, {900, 90 * time.Millisecond}, {990, 99 * time.Millisecond}, {1000, 100 * time.Millisecond}} {
		if got := percentile(ds, c.permille); got != c.want {
			t.Errorf("p%d of 1..100ms = %v, want %v", c.permille/10, got, c.want)
		}
	}
	if got := percentile(ds[:1], 990); got != time.Millisecond {
		t.Errorf("p99 of one sample = %v", got)
	}
	for _, c := range []struct {
		n, permille int
		ok          bool
	}{{999, 990, false}, {1000, 990, true}, {99, 900, false}, {100, 900, true}, {20, 500, true}} {
		if got := tailSupported(c.n, c.permille); got != c.ok {
			t.Errorf("tailSupported(%d, %d) = %v, want %v", c.n, c.permille, got, c.ok)
		}
	}

	// The evaluate p99 row appears only with at least 1000 samples.
	for _, n := range []int{999, 1000} {
		log := &clientLog{}
		for i := 0; i < n; i++ {
			o := opRecord{op: "evaluate", dur: time.Duration(i+1) * time.Microsecond, ok: true}
			log.ops = append(log.ops, o)
			log.steps = append(log.steps, o)
		}
		nominal := roundRec{speed: speedRef{ShaMS: nominalShaMS, MemMS: nominalMemMS}, elapsed: time.Second}
		p := &daemonPhase{m: merge([]*clientLog{log}, []roundRec{nominal})}
		var s metricSet
		p.addMetrics(&s, workloads[0], map[string]int{})
		_, has := s.vals["evaluate_ms_p99"]
		if has != (n >= 1000) {
			t.Errorf("%d samples: evaluate_ms_p99 reported = %v", n, has)
		}
		if _, err := s.contract(false); err != nil {
			t.Errorf("%d samples: %v", n, err)
		}
	}
}

// Every end-to-end time of a run is divided by the run's median host
// slowdown; the wall-clock values are kept beside them.
func TestNominalTimes(t *testing.T) {
	log := &clientLog{}
	for i := 1; i <= 10; i++ {
		o := opRecord{op: "evaluate", round: i % 3, dur: time.Duration(i) * time.Millisecond, ok: true}
		log.ops = append(log.ops, o)
		log.steps = append(log.steps, o)
	}
	// Slowdowns 1, 4 and 2: the median is 2.
	p := &daemonPhase{
		setups: []time.Duration{300 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond},
		m: merge([]*clientLog{log}, []roundRec{
			{speed: speedRef{ShaMS: nominalShaMS, MemMS: nominalMemMS}, elapsed: time.Second},
			{speed: speedRef{ShaMS: 4 * nominalShaMS, MemMS: nominalMemMS}, elapsed: time.Second},
			{speed: speedRef{ShaMS: nominalShaMS, MemMS: 2 * nominalMemMS}, elapsed: 3 * time.Second},
		}),
	}
	var s metricSet
	p.addMetrics(&s, workloads[0], map[string]int{})
	for name, want := range map[string]float64{
		"host.slowdown":    2,
		"setup_s":          0.1,
		"wall.setup_s":     0.2,
		"req_per_s":        4,
		"wall.req_per_s":   2,
		"step_ms_p50":      2.5,
		"wall.step_ms_p50": 5,
		"step_ms_p90":      4.5,
		"wall.step_ms_p90": 9,
	} {
		if got := s.vals[name].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (bund led) (x) S 1 4242 4242 0 -1 4194560 5000 0 0 0 250 31 0 0 20 0 12 0 100 1000000 5000 18446744073709551615"
	got, err := parseStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (250.0 + 31.0) / clockTicks; got != want {
		t.Errorf("cpu seconds = %g, want %g", got, want)
	}
	if _, err := parseStat("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat accepted")
	}
	if _, err := parseStat("no parens"); err == nil {
		t.Error("stat without a command field accepted")
	}
	if st, err := parseState(stat); err != nil || st != 'S' {
		t.Errorf("state = %q, %v; want S", st, err)
	}
	if st, err := parseState("7 (a) b) T 1 7"); err != nil || st != 'T' {
		t.Errorf("state after a command holding ') ' = %q, %v; want T", st, err)
	}
	status := "Name:\tbundled\nState:\tS (sleeping)\nVmHWM:\t  712344 kB\nVmRSS:\t  700000 kB\nThreads:\t12\n"
	f := parseStatus(status)
	if f["VmHWM"] != 712344 || f["VmRSS"] != 700000 {
		t.Errorf("status fields = %v", f)
	}
	if _, ok := f["Threads"]; ok {
		t.Error("a field without kB was parsed as a size")
	}
}

// Host-speed readings are taken with the daemons stopped; pause must not
// return before every thread is, and resume must let them run again.
func TestPauseResume(t *testing.T) {
	bin, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary")
	}
	p, err := startProc(bin, []string{"30"}, filepath.Join(t.TempDir(), "sleep.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	if err := pause([]*proc{p}); err != nil {
		t.Fatal(err)
	}
	if stopped, err := procStopped(p.pid()); err != nil || !stopped {
		t.Fatalf("after pause: stopped %v, %v", stopped, err)
	}
	resume([]*proc{p})
	deadline := time.Now().Add(2 * time.Second)
	for {
		stopped, err := procStopped(p.pid())
		if err != nil {
			t.Fatal(err)
		}
		if !stopped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("still stopped 2s after resume")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGenerators(t *testing.T) {
	sd, err := loadScale(benchScale)
	if err != nil {
		t.Fatal(err)
	}
	items := sd.top[:40]
	inTop := map[int]bool{}
	for _, it := range items {
		inTop[it] = true
	}
	checkLineup := func(l lineup) {
		t.Helper()
		if n := len(l.offers); n < 2 || n > 5 {
			t.Fatalf("lineup has %d offers", n)
		}
		seen := map[int]bool{}
		for _, off := range l.offers {
			if n := len(off); n < 2 || n > 4 {
				t.Fatalf("offer has %d items", n)
			}
			for _, it := range off {
				if seen[it] || !inTop[it] {
					t.Fatalf("lineup %v reuses an item or leaves the top items", l.offers)
				}
				seen[it] = true
			}
		}
	}

	pool := hotPool(3, items, 2)
	if !reflect.DeepEqual(pool, hotPool(3, items, 2)) || reflect.DeepEqual(pool, hotPool(4, items, 2)) {
		t.Error("hot pool is not a function of the seed")
	}
	if len(pool) != 512 {
		t.Fatalf("hot pool has %d keys", len(pool))
	}
	keys := map[string]bool{}
	for _, l := range pool {
		checkLineup(l)
		keys[string(rune('0'+l.corpus))+l.key()] = true
	}
	if len(keys) != 512 {
		t.Errorf("hot pool repeats keys: %d distinct", len(keys))
	}
	h1, h2 := newHotStream(3, 0, pool), newHotStream(3, 0, pool)
	for i := 0; i < 200; i++ {
		if a, b := h1.next(), h2.next(); a.key() != b.key() {
			t.Fatal("hot stream is not a function of the seed")
		}
	}

	f1, f2 := newFreshStream(5, 1, items, 2), newFreshStream(5, 1, items, 2)
	fresh := map[string]bool{}
	for i := 0; i < 2000; i++ {
		a, b := f1.next(), f2.next()
		if a.key() != b.key() || a.corpus != b.corpus {
			t.Fatal("fresh stream is not a function of the seed")
		}
		if a.corpus != i%2 {
			t.Fatal("fresh stream does not alternate corpora")
		}
		checkLineup(a)
		k := string(rune('0'+a.corpus)) + a.key()
		if fresh[k] {
			t.Fatalf("fresh stream repeated %s", k)
		}
		fresh[k] = true
	}

	w := sd.w
	p1, p2 := newPatchStream(9, w, sd.prices), newPatchStream(9, w, sd.prices)
	for i := 0; i < 300; i++ {
		a, b := p1.next(), p2.next()
		if !reflect.DeepEqual(a, b) {
			t.Fatal("patch stream is not a function of the seed")
		}
		if len(a) != cellsPerPatch {
			t.Fatalf("patch has %d cells", len(a))
		}
		coords := map[[2]int]bool{}
		for _, c := range a {
			if c.Consumer < 0 || c.Consumer >= w.Consumers() || c.Item < 0 || c.Item >= w.Items() {
				t.Fatalf("cell %+v out of range", c)
			}
			if c.Value < 0 || math.IsNaN(c.Value) || math.IsInf(c.Value, 0) || (c.Delete && c.Value != 0) {
				t.Fatalf("cell %+v has an invalid value", c)
			}
			if coords[[2]int{c.Consumer, c.Item}] {
				t.Fatalf("patch touches (%d,%d) twice", c.Consumer, c.Item)
			}
			coords[[2]int{c.Consumer, c.Item}] = true
		}
		// The stream's picture of the matrix must stay true: deletes hit
		// non-zero cells, so the patched matrix never drifts from it.
		for _, c := range a {
			if c.Delete && w.At(c.Consumer, c.Item) == 0 {
				t.Fatalf("patch %d deletes the empty cell (%d,%d)", i, c.Consumer, c.Item)
			}
		}
		if w, err = w.WithDelta(a); err != nil {
			t.Fatal(err)
		}
	}

	algs := newAlgStream(11)
	for cycle := 0; cycle < 10; cycle++ {
		seen := map[string]bool{}
		for i := 0; i < len(solveAlgorithms); i++ {
			seen[algs.next()] = true
		}
		if len(seen) != len(solveAlgorithms) {
			t.Fatalf("cycle %d does not solve each algorithm once: %v", cycle, seen)
		}
	}
}

func TestLedgerSelfTimesSumToCall(t *testing.T) {
	r := newRecorder()
	r.on.Store(true)
	add := func(id, parent int64, layer, name, key string, start, end int64) {
		r.add(spanRec{ID: id, Parent: parent, Layer: layer, Name: name, Key: key, Start: start, End: end})
	}
	// A solve: client → server → engine (context-joined) → two RPCs that
	// overlap each other.
	add(1, 0, "client", "solve", "", 0, 100)
	add(2, 1, "server", "POST", "", 10, 90)
	add(3, 2, "config", "solve:greedy", "", 20, 80)
	add(4, 3, "cluster", "vector", "", 30, 50)
	add(5, 3, "cluster", "vector", "", 40, 60)
	// A batched evaluate: the engine span has no parent and is joined by
	// its lineup key through the server span that contains it.
	add(6, 0, "client", "evaluate", "1,2;3,4", 200, 300)
	add(7, 6, "server", "POST", "", 210, 290)
	add(8, 0, "config", "evaluate", "1,2;3,4", 220, 240)
	// A cache hit: no engine at all.
	add(9, 0, "client", "evaluate", "5,6", 400, 420)
	add(10, 9, "server", "POST", "", 405, 415)
	led := r.analyze()
	if led.unjoined != 0 || led.requests != 3 {
		t.Fatalf("requests %d, unjoined %d", led.requests, led.unjoined)
	}
	// Per request, in ns: client self 20+20+10, handler self 20+60+10,
	// engine self 30+20, cluster 30 — over 3 requests and 1e3 ns/µs.
	want := map[string]float64{
		"call": 220, "client": 50, "handler": 90, "config": 50, "cluster": 30,
	}
	got := map[string]float64{
		"call": led.callUS * 3e3, "client": led.clientSelf * 3e3, "handler": led.handlerSelf * 3e3,
		"config": led.configSelf * 3e3, "cluster": led.clusterSelf * 3e3,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g ns, want %g", k, got[k], v)
		}
	}
	if sum := led.clientSelf + led.handlerSelf + led.configSelf + led.clusterSelf; math.Abs(sum-led.callUS) > 1e-9 {
		t.Errorf("self times sum to %g µs, the call is %g", sum, led.callUS)
	}
	if v, n := led.meanUS("solve:greedy"); n != 1 || v != 0.06 {
		t.Errorf("engine span mean = %g µs over %d", v, n)
	}
}

// The ledger is checked against the server's own stage timers: the bench's
// handler span against stage request, its engine spans against stage solve,
// each difference as a share of the calls.
func TestCrossCheck(t *testing.T) {
	scrapeOf := func(reqSec, reqN, solveSec, solveN float64) scrape {
		sc, err := parseProm(fmt.Sprintf(
			"bundled_stage_seconds_sum{stage=\"request\"} %g\nbundled_stage_seconds_count{stage=\"request\"} %g\n"+
				"bundled_stage_seconds_sum{stage=\"solve\"} %g\nbundled_stage_seconds_count{stage=\"solve\"} %g\n",
			reqSec, reqN, solveSec, solveN))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// Ten calls of 1000 µs; handler spans of 800 µs, the server's request
	// timer 790 µs; engine spans of 700 µs on 5 solves, the server's solve
	// timer 690 µs.
	p := &tracedPhase{
		led:    ledger{requests: 10, callUS: 1000, handlerUS: 800, byName: map[string][]int64{"solve:greedy": {700e3, 700e3, 700e3, 700e3, 700e3}}},
		before: scrapeOf(1, 3, 0.5, 2),
		after:  scrapeOf(1+10*790e-6, 13, 0.5+5*690e-6, 7),
	}
	outside, eng := p.crossCheck()
	if math.Abs(outside-10) > 1e-6 || math.Abs(eng-0.005) > 1e-9 {
		t.Errorf("cross-check = %g µs, %g; want 10 µs, 0.005", outside, eng)
	}
	if msg := p.crossCheckFailure(); msg != "" {
		t.Errorf("agreeing timers fail: %s", msg)
	}
	// Engine spans 90 µs per solve longer than the server's solve timer:
	// 450 µs of 10000, 4.5%, is within; 120 µs, 6%, is not.
	p.led.byName["solve:greedy"] = []int64{780e3, 780e3, 780e3, 780e3, 780e3}
	if msg := p.crossCheckFailure(); msg != "" {
		t.Errorf("engine 4.5%% off fails: %s", msg)
	}
	p.led.byName["solve:greedy"] = []int64{810e3, 810e3, 810e3, 810e3, 810e3}
	if p.crossCheckFailure() == "" {
		t.Error("engine spans 6% of the calls off the solve timer pass")
	}
	// A handler span shorter than the request timer inside it.
	p.led.byName = nil
	p.led.handlerUS = 770
	p.after = scrapeOf(1+10*790e-6, 13, 0.5, 2)
	if _, eng := p.crossCheck(); !math.IsNaN(eng) {
		t.Errorf("engine check without solves = %g, want NaN", eng)
	}
	if p.crossCheckFailure() == "" {
		t.Error("a handler span 20 µs shorter than the request timer passes")
	}
}

func TestJudge(t *testing.T) {
	steady := func(center float64) side {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, center*(1+0.001*float64(i%3)))
		}
		return newSide(xs)
	}
	a := steady(100)
	for _, c := range []struct {
		what       string
		b          side
		better     string
		drift      float64
		wall       bool
		wantPrefix string
	}{
		{"20% slower under a 10% bound", steady(120), "lower", 0, false, "REGRESSION"},
		{"5% slower under a 10% bound", steady(105), "lower", 0, false, "within bound"},
		{"10% faster in every pair", steady(90), "lower", 0, false, "gain"},
		{"10% more throughput in every pair", steady(110), "higher", 0.02, false, "gain"},
		{"a side spread past the bound", newSide([]float64{50, 80, 100, 120, 150}), "lower", 0, false, "unresolved"},
		// Identical code on a host 15% faster for B: the normalized reading
		// still looks 10% better, which must not pass for a gain.
		{"same code, B's host 15% faster", steady(90), "lower", -0.15, false, "unresolved (host drift)"},
		{"same code, B's host 15% faster, wall clock", steady(85), "lower", -0.15, true, "unresolved (host drift)"},
		// A normalized regression stands whatever the host did.
		{"20% slower, B's host 15% slower", steady(120), "lower", 0.15, false, "REGRESSION"},
		// On the wall clock a slower host explains a slower B; a faster one
		// does not.
		{"wall 20% slower, B's host 15% slower", steady(120), "lower", 0.15, true, "unresolved (host drift)"},
		{"wall 20% slower, B's host 15% faster", steady(120), "lower", -0.15, true, "REGRESSION"},
	} {
		if v := judge(a, c.b, c.better, 0.1, c.drift, c.wall); !strings.HasPrefix(v, c.wantPrefix) {
			t.Errorf("%s: %s, want %s", c.what, v, c.wantPrefix)
		}
	}
}

// BENCHMARK.json at the repository root is the benchmark contract; the
// tables in metrics.go and workload.go must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the bench %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, bench %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the bench %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, bench %+v", i, m, d)
		}
	}
}

// The oracle's pins are the committed BENCH_greedy.json revenues.
func TestPinsMatchBenchGreedy(t *testing.T) {
	buf, err := os.ReadFile("../BENCH_greedy.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Name    string  `json:"name"`
			Revenue float64 `json:"revenue"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, r := range doc.Results {
		rows[r.Name] = r.Revenue
	}
	for strategy, algs := range pinned {
		for alg, rev := range algs {
			name := map[string]string{"greedy": "Session/GreedyMerge/", "matching": "Session/SolveMatching/"}[alg] + strategy
			if got, ok := rows[name]; !ok || !sameRevenue(got, rev) {
				t.Errorf("pin %s/%s = %.12g, BENCH_greedy.json %s = %.12g", strategy, alg, rev, name, got)
			}
		}
	}
}
