package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"bundling"
	"bundling/client"
)

// opRecord is one request, or one user step, of a measured phase.
type opRecord struct {
	op    string // "evaluate", "patch", "solve", or "step" for a user step
	round int
	dur   time.Duration
	ok    bool
}

// evalCheck is one sampled evaluate the oracle re-prices off the clock.
type evalCheck struct {
	corpus  int
	offers  [][]int
	revenue float64
}

// solveCheck is one sampled solve: the algorithm run after patch step.
type solveCheck struct {
	step    int
	alg     string
	revenue float64
}

// clientLog is everything one closed-loop client saw in a phase.
type clientLog struct {
	ops      []opRecord
	steps    []opRecord // one per completed user step
	evals    []evalCheck
	solves   []solveCheck
	patches  [][]bundling.DeltaCell // solve-*: every acknowledged patch, in order
	failed   int
	failures []string
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// checkEvery is the oracle's deterministic sampling rate: every 8th
// evaluate of each client and every 8th solve step.
const checkEvery = 8

// runner runs one workload's closed-loop clients against a deployment.
type runner struct {
	wl      workload
	seed    int64
	corpora []corpus
	items   []int    // evaluate-*: the 500 most-rated items
	pool    []lineup // evaluate-hot's key set
	prices  []float64
	gen     int       // solve-*: the corpus generation the phase starts at
	rec     *recorder // traced runs: client spans; nil otherwise
	paused  []*proc   // the daemon processes, paused during host-speed readings
}

// call times one client request, as a client span when tracing.
func (d *runner) call(ctx context.Context, op, key string, fn func(context.Context) error) (time.Duration, error) {
	if d.rec == nil {
		t0 := time.Now()
		err := fn(ctx)
		return time.Since(t0), err
	}
	return d.rec.clientCall(ctx, op, key, fn)
}

// phase drives the workload for dur, split into equal rounds, and returns
// each client's log and the rounds. The clients pause between rounds while
// the bench takes its host-speed reading; their streams carry on from one
// round to the next.
func (d *runner) phase(ctx context.Context, c *client.Client, dur time.Duration) ([]*clientLog, []roundRec, error) {
	logs := make([]*clientLog, d.wl.clients)
	clients := make([]func(round int, deadline time.Time), len(logs))
	for i := range logs {
		logs[i] = &clientLog{}
		if d.wl.kind == kindSolve {
			clients[i] = d.solveClient(ctx, c, logs[i])
		} else {
			clients[i] = d.evaluateClient(ctx, c, i, logs[i])
		}
	}
	out := make([]roundRec, rounds)
	for r := range out {
		var err error
		if out[r].speed, err = readSpeed(d.paused); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		deadline := start.Add(dur / rounds)
		var wg sync.WaitGroup
		for _, run := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(r, deadline)
			}()
		}
		wg.Wait()
		out[r].elapsed = time.Since(start)
	}
	return logs, out, nil
}

// evaluateClient returns a closed-loop evaluate client that sends requests
// until each round's deadline.
func (d *runner) evaluateClient(ctx context.Context, c *client.Client, i int, log *clientLog) func(int, time.Time) {
	var next func() lineup
	if d.wl.kind == kindHot {
		next = newHotStream(d.seed, i, d.pool).next
	} else {
		next = newFreshStream(d.seed, i, d.items, len(d.corpora)).next
	}
	n := 0
	return func(round int, deadline time.Time) {
		for ; time.Now().Before(deadline); n++ {
			l := next()
			var resp *client.EvaluateResponse
			dur, err := d.call(ctx, "evaluate", l.key(), func(ctx context.Context) error {
				var err error
				resp, err = c.Evaluate(ctx, d.corpora[l.corpus].id, l.offers)
				return err
			})
			log.ops = append(log.ops, opRecord{op: "evaluate", round: round, dur: dur, ok: err == nil})
			if err != nil {
				log.fail("evaluate %s: %v", d.corpora[l.corpus].id, err)
				continue
			}
			log.steps = append(log.steps, opRecord{op: "step", round: round, dur: dur, ok: true})
			if n%checkEvery == 0 {
				log.evals = append(log.evals, evalCheck{corpus: l.corpus, offers: l.offers, revenue: resp.Config.Revenue})
			}
		}
	}
}

// solveClient returns the re-optimise loop: PATCH 4 cells conditioned on
// the current generation, then a cold solve of the next algorithm. A failed
// patch breaks the generation chain, so the client stops there.
func (d *runner) solveClient(ctx context.Context, c *client.Client, log *clientLog) func(int, time.Time) {
	co := d.corpora[0]
	patches := newPatchStream(d.seed, co.w, d.prices)
	algs := newAlgStream(d.seed)
	gen, n, stopped := d.gen, 0, false
	return func(round int, deadline time.Time) {
		for ; !stopped && time.Now().Before(deadline); n++ {
			cells := patches.next()
			t0 := time.Now()
			var pr *client.MutateCorpusResponse
			dur, err := d.call(ctx, "patch", cellsKey(cells), func(ctx context.Context) error {
				var err error
				pr, err = c.PatchCorpus(ctx, co.id, gen, cells)
				return err
			})
			log.ops = append(log.ops, opRecord{op: "patch", round: round, dur: dur, ok: err == nil})
			if err != nil {
				log.fail("patch %s at generation %d: %v", co.id, gen, err)
				stopped = true
				return
			}
			if pr.Version != gen+1 {
				log.fail("patch %s: generation %d, want %d", co.id, pr.Version, gen+1)
				stopped = true
				return
			}
			gen = pr.Version
			log.patches = append(log.patches, cells)
			alg := algs.next()
			var sr *client.SolveResponse
			dur, err = d.call(ctx, "solve", alg, func(ctx context.Context) error {
				var err error
				sr, err = c.Solve(ctx, co.id, alg)
				return err
			})
			log.ops = append(log.ops, opRecord{op: "solve", round: round, dur: dur, ok: err == nil})
			switch {
			case err != nil:
				log.fail("solve %s %s: %v", co.id, alg, err)
				stopped = true
				return
			case sr.Cached:
				log.fail("solve %s %s at generation %d was served from the cache", co.id, alg, gen)
			case sr.Version != gen:
				log.fail("solve %s %s ran on generation %d, want %d", co.id, alg, sr.Version, gen)
			}
			log.steps = append(log.steps, opRecord{op: "step", round: round, dur: time.Since(t0), ok: true})
			if n%checkEvery == 0 {
				log.solves = append(log.solves, solveCheck{step: n, alg: alg, revenue: sr.Config.Revenue})
			}
		}
	}
}

// merged is a phase's client logs folded together.
type merged struct {
	ops      []opRecord
	stepOps  []opRecord      // one per completed user step
	steps    []time.Duration // stepOps' durations, sorted
	rounds   []roundRec
	evals    []evalCheck
	solves   []solveCheck
	patches  [][]bundling.DeltaCell
	failed   int
	failures []string
}

func merge(logs []*clientLog, rounds []roundRec) merged {
	m := merged{rounds: rounds}
	for _, l := range logs {
		m.ops = append(m.ops, l.ops...)
		m.stepOps = append(m.stepOps, l.steps...)
		m.evals = append(m.evals, l.evals...)
		m.solves = append(m.solves, l.solves...)
		m.patches = append(m.patches, l.patches...) // solve-* has one client
		m.failed += l.failed
		m.failures = append(m.failures, l.failures...)
	}
	for _, s := range m.stepOps {
		m.steps = append(m.steps, s.dur)
	}
	sort.Slice(m.steps, func(i, j int) bool { return m.steps[i] < m.steps[j] })
	return m
}

// elapsed is the phase's measured wall time: its rounds without the pauses
// between them.
func (m merged) elapsed() time.Duration {
	var sum time.Duration
	for _, r := range m.rounds {
		sum += r.elapsed
	}
	return sum
}

// completed counts the phase's successful requests.
func (m merged) completed() int {
	n := 0
	for _, o := range m.ops {
		if o.ok {
			n++
		}
	}
	return n
}

// opDurations returns one op's successful request latencies, sorted.
func (m merged) opDurations(op string) []time.Duration {
	var out []time.Duration
	for _, o := range m.ops {
		if o.ok && o.op == op {
			out = append(out, o.dur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// meanDuration is the mean of the phase's successful request latencies.
func (m merged) meanDuration() time.Duration {
	var sum time.Duration
	n := 0
	for _, o := range m.ops {
		if o.ok {
			sum += o.dur
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// rounds is the number of equal rounds a phase is split into.
const rounds = 20

// roundRec is one round of a phase.
type roundRec struct {
	speed   speedRef // read just before the round, with the clients idle
	elapsed time.Duration
}

// roundRates returns completed requests per second in each round.
func (m merged) roundRates() []float64 {
	counts := make([]int, len(m.rounds))
	for _, o := range m.ops {
		if o.ok {
			counts[o.round]++
		}
	}
	out := make([]float64, len(m.rounds))
	for i, c := range counts {
		out[i] = float64(c) / m.rounds[i].elapsed.Seconds()
	}
	return out
}

// slowdown is the host slowdown over the phase: the median of the readings
// taken before its rounds. Every end-to-end time of the run is divided by
// it; dividing each round by its own reading was no steadier (README.md,
// "Host speed").
func (m merged) slowdown() float64 {
	xs := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		xs[i] = r.speed.slowdown()
	}
	return median(xs)
}

// nearestRank is the 1-based nearest rank of the permille-quantile of n
// samples; integer math, so 900‰ of 100 samples is exactly rank 90.
func nearestRank(n, permille int) int {
	r := (permille*n + 999) / 1000
	return max(r, 1)
}

// percentile returns the permille-quantile of sorted samples.
func percentile(sorted []time.Duration, permille int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), permille)-1]
}

// tailSupported reports whether n samples leave at least ten beyond the
// permille-quantile — the rule for reporting a tail percentile at all.
func tailSupported(n, permille int) bool {
	return n-nearestRank(n, permille) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
