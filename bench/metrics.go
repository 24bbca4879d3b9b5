package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric of the benchmark contract. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: the allowed regression, as a share of the parent's median
}

// endToEnd are the metrics a user of the daemons sees, reported by every
// untraced run of every workload, their times at the nominal host speed
// (speed.go). A step is the user's unit of work: one evaluate on
// evaluate-*, one PATCH plus its cold solve on solve-*. The bounds are as
// wide as the benchmark's host needs: README.md, "Bounds", gives the
// spreads and shifts that rule out 10%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "req/s", "higher", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"step_ms_p90", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.2},
}

// perLayer are the layer metrics every traced run reports. A layer that a
// workload does not exercise reads as a zero share or count, never as a
// zero time: times are listed only for layers on every workload's path.
var perLayer = []metricDef{
	// Traced phase: bench spans around client, handler, engine and RPCs.
	{"trace.call_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"client.self_us", "us", "lower", 0},
	{"client.loopback_us", "us", "lower", 0},
	{"server.handler_us", "us", "lower", 0},
	{"server.handler_self_us", "us", "lower", 0},
	{"config.self_share", "ratio", "lower", 0},
	{"cluster.self_share", "ratio", "lower", 0},
	// Off-clock replays of the workload's upload payload.
	{"codec.matrix_encode_ms", "ms", "lower", 0},
	{"codec.matrix_decode_ms", "ms", "lower", 0},
	{"codec.upload_kb", "KB", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"config.new_solver_ms", "ms", "lower", 0},
	// Scrapes of the untraced daemons' /metrics and /proc.
	{"server.request_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.unattributed_us", "us", "lower", 0},
	{"server.cpu_us_per_req", "us", "lower", 0},
	{"server.heap_mb", "MB", "lower", 0},
	{"server.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.coalesced_ratio", "ratio", "higher", 0},
	{"server.batch_size", "count", "higher", 0},
	{"server.shed_ratio", "ratio", "lower", 0},
	{"server.queue_share", "ratio", "lower", 0},
	{"server.batch_share", "ratio", "lower", 0},
	{"server.mutate_share", "ratio", "lower", 0},
	{"server.persist_share", "ratio", "lower", 0},
	{"config.solve_share", "ratio", "lower", 0},
	{"config.price_candidates_share", "ratio", "lower", 0},
	{"server.index_ms", "ms", "lower", 0},
	{"store.disk_mb", "MB", "lower", 0},
	{"cluster.rpc_per_req", "count", "lower", 0},
	{"cluster.transport_share", "ratio", "lower", 0},
	{"cluster.stale_rejections", "count", "lower", 0},
	{"cluster.worker_cpu_share", "ratio", "lower", 0},
	{"cluster.worker_rss_mb", "MB", "lower", 0},
	{"cluster.feed_kb", "KB", "lower", 0},
}

// value is one measured metric as the result file stores it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a run's metrics in the order they were measured.
type metricSet struct {
	order []string
	vals  map[string]value
}

func (s *metricSet) add(name string, v float64, unit string) {
	if s.vals == nil {
		s.vals = map[string]value{}
	}
	if _, dup := s.vals[name]; !dup {
		s.order = append(s.order, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.vals[name] = value{Value: v, Unit: unit}
}

// contract picks the metrics the benchmark contract names for a run: every
// end-to-end metric untraced, every per-layer metric traced.
func (s *metricSet) contract(traced bool) (map[string]value, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := s.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = v
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of unsorted values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the spread the bench reports is the one the
// benchmark contract computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
