package main

// The chaos experiment benchmarks the resilience layer: it drives the
// scatter/gather evaluate path through cluster.Solver over a 3-worker
// in-process fleet whose transports inject faults (transport errors plus
// stale-span rejections) at 0%, 10% and 30% per-call rates, recording
// throughput, tail latency and the fallback rate at each level. Every
// result is still checked against the single-machine solver within 1e-9 —
// the ladder (re-feed, replica, local span store) must absorb the injected
// faults without touching results, so the committed BENCH_chaos.json is a
// fault-tolerance certificate, not just a performance record. With
// -benchout it writes BENCH_chaos.json.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bundling"
	"bundling/internal/cluster"
	"bundling/internal/config"
	"bundling/internal/experiments"
)

// ChaosRun is one fault level's measured evaluate behavior.
type ChaosRun struct {
	FaultRate   float64 `json:"fault_rate"` // injected error probability per call
	StaleRate   float64 `json:"stale_rate"` // injected stale-span probability per query
	RPS         float64 `json:"requests_per_second"`
	DurationSec float64 `json:"duration_seconds"`
	Latency     Latency `json:"latency"`

	RemoteCalls    int64 `json:"remote_calls"`
	Refeeds        int64 `json:"refeeds"`
	ReplicaRetries int64 `json:"replica_retries"`
	Fallbacks      int64 `json:"local_fallbacks"`
	InjectedErrors int64 `json:"injected_errors"`
	InjectedStale  int64 `json:"injected_stale"`
	// FallbackRate is local fallbacks per span request (RPC ladder entries),
	// the headline degradation measure.
	FallbackRate float64 `json:"fallback_rate"`
}

// ChaosReport is the file schema of BENCH_chaos.json.
type ChaosReport struct {
	GeneratedAt string `json:"generated_at"`
	Scale       string `json:"scale"`
	Users       int    `json:"users"`
	Items       int    `json:"items"`
	Go          string `json:"go"`
	NumCPU      int    `json:"numcpu"`
	MaxProcs    int    `json:"maxprocs"`
	StripeSize  int    `json:"stripe_size"`
	Workers     int    `json:"workers"`
	Concurrency int    `json:"concurrency"`
	Requests    int    `json:"requests"`
	OfferPool   int    `json:"offer_pool"`

	// MaxRelDiff is the largest relative revenue difference observed between
	// any chaos-fleet evaluate and its single-machine counterpart (the
	// harness fails above 1e-9).
	MaxRelDiff float64 `json:"max_rel_diff"`

	Runs []ChaosRun `json:"runs"`
}

// chaosClients closed-loop clients share chaosRequests evaluates at every
// fault level.
const (
	chaosClients  = 8
	chaosRequests = 600
)

// runChaos measures the evaluate path through a 3-worker fleet at rising
// injected-fault rates.
func runChaos(env *experiments.Env, scaleName, outPath string, base config.Params) error {
	users := env.W.Consumers()
	stripeSize := (users + 7) / 8
	opts := bundling.Options{
		Theta:         base.Theta,
		MaxBundleSize: base.K,
		Parallelism:   base.Parallelism,
		StripeSize:    stripeSize,
	}
	local, err := bundling.NewSolver(env.W, opts)
	if err != nil {
		return err
	}
	pool := offerPool(env.W.Items(), 32)
	want := make([]*bundling.Configuration, len(pool))
	for i, offers := range pool {
		if want[i], err = local.Evaluate(offers); err != nil {
			return fmt.Errorf("local evaluate %d: %w", i, err)
		}
	}

	report := ChaosReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scaleName,
		Users:       users,
		Items:       env.W.Items(),
		Go:          runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		StripeSize:  stripeSize,
		Workers:     3,
		Concurrency: chaosClients,
		Requests:    chaosRequests,
		OfferPool:   len(pool),
	}

	for _, rate := range []float64{0, 0.10, 0.30} {
		staleRate := rate / 2
		transports := make([]cluster.Transport, report.Workers)
		chaos := make([]*cluster.ChaosTransport, report.Workers)
		for i := range transports {
			base := cluster.NewLocal(cluster.NewWorker(cluster.WorkerConfig{}), fmt.Sprintf("inproc-%d", i))
			chaos[i] = cluster.NewChaos(base, cluster.ChaosConfig{
				Seed:      int64(1000*rate) + int64(i) + 1,
				ErrorRate: rate,
				StaleRate: staleRate,
			})
			transports[i] = chaos[i]
		}
		cs, err := cluster.NewSolver(env.W, opts, cluster.Config{Workers: transports, RequestTimeout: 5 * time.Second})
		if err != nil {
			return err
		}

		lat := make([]time.Duration, chaosRequests)
		var cursor atomic.Int64
		var errMu sync.Mutex
		var firstErr error
		var maxDiff atomicFloat
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < chaosClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= chaosRequests {
						return
					}
					p := i % len(pool)
					t0 := time.Now()
					cfg, err := cs.Evaluate(pool[p])
					lat[i] = time.Since(t0)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					denom := 1 + math.Abs(want[p].Revenue)
					maxDiff.max(math.Abs(cfg.Revenue-want[p].Revenue) / denom)
				}
			}()
		}
		wg.Wait()
		dur := time.Since(start)
		if firstErr != nil {
			return fmt.Errorf("fault rate %g: %w", rate, firstErr)
		}
		if d := maxDiff.load(); d > 1e-9 {
			return fmt.Errorf("fault rate %g: chaos/local revenue diverged: max relative diff %g > 1e-9", rate, d)
		}
		if d := maxDiff.load(); d > report.MaxRelDiff {
			report.MaxRelDiff = d
		}

		st := cs.ClusterStats()
		var injErr, injStale int64
		for _, c := range chaos {
			e, s, _ := c.InjectedFaults()
			injErr += e
			injStale += s
		}
		run := ChaosRun{
			FaultRate:      rate,
			StaleRate:      staleRate,
			RPS:            float64(chaosRequests) / dur.Seconds(),
			DurationSec:    dur.Seconds(),
			Latency:        latencySummary(lat),
			RemoteCalls:    st.RemoteCalls,
			Refeeds:        st.Refeeds,
			ReplicaRetries: st.ReplicaRetries,
			Fallbacks:      st.LocalFallbacks,
			InjectedErrors: injErr,
			InjectedStale:  injStale,
		}
		if ladder := st.LocalFallbacks + st.RemoteCalls; ladder > 0 {
			run.FallbackRate = float64(st.LocalFallbacks) / float64(ladder)
		}
		report.Runs = append(report.Runs, run)
		fmt.Printf("chaos: %.0f%% faults: %.1f eval/s (p50 %.2fms p99 %.2fms), %d RPCs, %d refeeds, %d replica retries, %d fallbacks (%.1f%%)\n",
			rate*100, run.RPS, run.Latency.P50, run.Latency.P99,
			st.RemoteCalls, st.Refeeds, st.ReplicaRetries, st.LocalFallbacks, run.FallbackRate*100)
	}
	fmt.Printf("chaos: max relative revenue diff vs local: %g (bound 1e-9)\n", report.MaxRelDiff)

	if outPath == "" || outPath == "-" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// Latency summarizes a latency distribution in milliseconds.
type Latency struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// latencySummary computes percentile stats in milliseconds.
func latencySummary(ds []time.Duration) Latency {
	if len(ds) == 0 {
		return Latency{}
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pick := func(q float64) float64 {
		idx := int(q * float64(len(sorted)-1))
		return float64(sorted[idx].Microseconds()) / 1000
	}
	return Latency{
		P50: pick(0.50),
		P90: pick(0.90),
		P99: pick(0.99),
		Max: float64(sorted[len(sorted)-1].Microseconds()) / 1000,
	}
}

// offerPool builds n distinct disjoint offer families over the item
// universe, deterministically.
func offerPool(items, n int) [][][]int {
	pool := make([][][]int, n)
	for p := range pool {
		var offers [][]int
		for o := 0; o < 10; o++ {
			start := (p*17 + o*13) % (items - 3)
			offers = append(offers, []int{start, start + 1, start + 2})
		}
		pool[p] = disjointOffers(offers, items)
	}
	return pool
}

// disjointOffers drops offers overlapping an earlier one, keeping the
// family valid under pure bundling (and trivially laminar under mixed).
func disjointOffers(offers [][]int, items int) [][]int {
	used := make([]bool, items)
	var out [][]int
	for _, off := range offers {
		ok := true
		for _, it := range off {
			if it >= items || used[it] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, it := range off {
			used[it] = true
		}
		out = append(out, off)
	}
	if len(out) == 0 {
		out = [][]int{{0, 1}}
	}
	return out
}

// atomicFloat tracks a running maximum across goroutines.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) max(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }
