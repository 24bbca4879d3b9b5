package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// side is one metric's values on one side of a comparison, in file order.
type side struct {
	vals       []float64
	q1, q2, q3 float64
}

func newSide(vals []float64) side {
	s := side{vals: vals}
	s.q1, s.q2, s.q3 = quartiles(vals)
	return s
}

// spread is the side's IQR as a share of its median.
func (s side) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.q2)) }

// runCompare implements -compare A.json... -- B.json...: side A is the
// parent, side B the change. Files pair up by position for the win count.
func runCompare(args []string) int {
	var a, b []string
	cur := &a
	for _, arg := range args {
		if arg == "--" {
			cur = &b
			continue
		}
		*cur = append(*cur, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: -compare A.json... -- B.json...")
		return 2
	}
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare reads the bounds from BENCHMARK.json in the repository root:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	ra, err := loadResults(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rb, err := loadResults(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type metric struct {
		name, better string
		bound        float64
		wall         bool
	}
	var metrics []metric
	for _, m := range bf.EndToEnd {
		metrics = append(metrics, metric{m.Name, m.Better, m.Bound, false})
	}
	// The same metrics on the wall clock, under the same bounds: a
	// regression that also slows the host-speed reading would be divided
	// out of the rows above, but not out of these.
	for _, m := range bf.EndToEnd {
		metrics = append(metrics, metric{"wall." + m.Name, m.Better, m.Bound, true})
	}
	for _, m := range bf.PerLayer {
		metrics = append(metrics, metric{m.Name, m.Better, 0, false})
	}
	var names []string
	for wl := range ra {
		if _, ok := rb[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	regressions := 0
	fmt.Printf("%-15s %-30s %-34s %-34s %9s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "delta", "bound", "verdict")
	for _, wl := range names {
		// The host's slowdown during each side's runs. The end-to-end times
		// are divided by it, but the workloads slow by more or less than
		// the reading, so a side-to-side difference leaves part of the
		// drift in the deltas below; judge acts on it.
		ca, cb := newSide(values(ra[wl], "host.slowdown")), newSide(values(rb[wl], "host.slowdown"))
		drift := ratio(cb.q2-ca.q2, ca.q2)
		note := ""
		if math.Abs(drift) > maxDrift {
			note = "  host drift: no gain can be claimed"
		}
		fmt.Printf("%-15s %-30s %-34s %-34s %+8.2f%%%s\n", wl, "(host slowdown)",
			fmt.Sprintf("%.4g [%.4g %.4g] %d", ca.q2, ca.q1, ca.q3, len(ca.vals)),
			fmt.Sprintf("%.4g [%.4g %.4g] %d", cb.q2, cb.q1, cb.q3, len(cb.vals)),
			drift*100, note)
		for _, m := range metrics {
			va, vb := values(ra[wl], m.name), values(rb[wl], m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			dlt := ratio(sb.q2-sa.q2, math.Abs(sa.q2))
			verdict := "per-layer"
			if m.bound > 0 {
				verdict = judge(sa, sb, m.better, m.bound, drift, m.wall)
				if verdict == "REGRESSION" {
					regressions++
				}
			}
			fmt.Printf("%-15s %-30s %-34s %-34s %+8.2f%% %5.0f%%  %s\n", wl, m.name,
				fmt.Sprintf("%.4g [%.4g %.4g] %d", sa.q2, sa.q1, sa.q3, len(va)),
				fmt.Sprintf("%.4g [%.4g %.4g] %d", sb.q2, sb.q1, sb.q3, len(vb)),
				dlt*100, m.bound*100, verdict)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

// maxDrift is the largest difference between the two sides' median host
// slowdowns under which a difference between them may be read as a gain.
const maxDrift = 0.05

// judge applies the benchmark's rules to one bounded metric, given drift,
// B's median host slowdown relative to A's, and whether the metric is on
// the wall clock:
//   - a side whose own spread exceeds the bound leaves the metric
//     unresolved, unless every B run beats every A run;
//   - a median worse by more than the bound is a regression — on the wall
//     clock only when B's host was not the slower one;
//   - with ten or more pairs, B winning at least nine tenths of them by
//     medians further apart than A's IQR is a gain.
//
// Any improvement read while the sides' host slowdowns differ by more than
// maxDrift is unresolved: part of it may be the host.
func judge(a, b side, better string, bound, drift float64, wall bool) string {
	beats := func(x, y float64) bool {
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	drifted := math.Abs(drift) > maxDrift
	if a.spread() > bound || b.spread() > bound {
		all := true
		for _, x := range b.vals {
			for _, y := range a.vals {
				all = all && beats(x, y)
			}
		}
		if all && !drifted {
			return "better (every run)"
		}
		if all {
			return "unresolved (host drift)"
		}
		return "unresolved"
	}
	worse := ratio(b.q2-a.q2, math.Abs(a.q2))
	if better == "higher" {
		worse = -worse
	}
	if worse > bound {
		if wall && drift > maxDrift {
			return "unresolved (host drift)"
		}
		return "REGRESSION"
	}
	pairs := min(len(a.vals), len(b.vals))
	if pairs < 10 {
		return "within bound"
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(b.vals[i], a.vals[i]) {
			wins++
		}
	}
	if wins*10 >= pairs*9 && math.Abs(b.q2-a.q2) > a.q3-a.q1 {
		if drifted {
			return "unresolved (host drift)"
		}
		return fmt.Sprintf("gain (%d/%d pairs)", wins, pairs)
	}
	return fmt.Sprintf("within bound (%d/%d pairs won)", wins, pairs)
}

// loadResults reads result records and groups them by workload, in order.
func loadResults(paths []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

// values collects one metric across result records.
func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
