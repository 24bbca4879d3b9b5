package config

import (
	"context"
	"math"
	"testing"

	"bundling/internal/pricing"
	"bundling/internal/wtp"
)

// spanAggregator is a single-process reference Aggregator: it partitions the
// matrix's stripes into span stores (the worker ingestion path) and reduces
// their partial aggregates the way the cluster coordinator does.
type spanAggregator struct {
	stores []*wtp.SpanStore
	alpha  float64
	levels int
}

func newSpanAggregator(t *testing.T, w *wtp.Matrix, p Params, spans int) *spanAggregator {
	t.Helper()
	sh, err := w.Shard(p.StripeSize)
	if err != nil {
		t.Fatal(err)
	}
	if spans > sh.Stripes() {
		spans = sh.Stripes()
	}
	a := &spanAggregator{alpha: p.Model.Alpha(), levels: p.PriceLevels}
	for i := 0; i < spans; i++ {
		s0 := i * sh.Stripes() / spans
		s1 := (i + 1) * sh.Stripes() / spans
		if s1 == s0 {
			continue
		}
		sp, err := sh.Span(s0, s1).Store()
		if err != nil {
			t.Fatal(err)
		}
		a.stores = append(a.stores, sp)
	}
	return a
}

func (a *spanAggregator) BundleMax(_ context.Context, sets [][]int, thetas, maxW []float64) {
	for k, items := range sets {
		maxW[k] = 0
		for _, sp := range a.stores {
			_, vals := sp.BundleVector(items, thetas[k], nil, nil)
			for _, v := range vals {
				maxW[k] = max(maxW[k], v)
			}
		}
	}
}

func (a *spanAggregator) BundleHistogram(_ context.Context, sets [][]int, thetas, maxW []float64, counts, sums []float64) {
	L := a.levels + 1
	pc := make([]float64, L)
	ps := make([]float64, L)
	for k, items := range sets {
		for _, sp := range a.stores {
			_, vals := sp.BundleVector(items, thetas[k], nil, nil)
			for i := range pc {
				pc[i], ps[i] = 0, 0
			}
			pricing.Histogram(vals, a.alpha, maxW[k], a.levels, pc, ps)
			for i := range pc {
				counts[k*L+i] += pc[i]
				sums[k*L+i] += ps[i]
			}
		}
	}
}

// TestEvaluateAggregatedMatchesEvaluate: pricing a pure offer family from
// span-reduced histograms must match the vector-gather Evaluate within 1e-9
// for any span count.
func TestEvaluateAggregatedMatchesEvaluate(t *testing.T) {
	w := smallRandomMatrix(t, 120, 12, 5)
	offers := [][]int{{0, 1, 2}, {3, 7}, {4}, {5, 8, 9, 10}}
	for _, theta := range []float64{0, -0.15, 0.2} {
		p := DefaultParams()
		p.Theta = theta
		p.StripeSize = 16
		s, err := NewSolver(w, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Evaluate(offers)
		if err != nil {
			t.Fatal(err)
		}
		for _, spans := range []int{1, 2, 4} {
			got, err := s.EvaluateAggregated(offers, newSpanAggregator(t, w, p, spans))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Revenue-want.Revenue) > 1e-9*(1+math.Abs(want.Revenue)) {
				t.Fatalf("theta %g spans %d: revenue %g != %g", theta, spans, got.Revenue, want.Revenue)
			}
			if math.Abs(got.Surplus-want.Surplus) > 1e-9*(1+math.Abs(want.Surplus)) {
				t.Fatalf("theta %g spans %d: surplus %g != %g", theta, spans, got.Surplus, want.Surplus)
			}
			if len(got.Bundles) != len(want.Bundles) {
				t.Fatalf("theta %g spans %d: %d bundles != %d", theta, spans, len(got.Bundles), len(want.Bundles))
			}
			for i := range got.Bundles {
				if got.Bundles[i].Price != want.Bundles[i].Price {
					t.Fatalf("theta %g spans %d: bundle %d price %g != %g", theta, spans, i, got.Bundles[i].Price, want.Bundles[i].Price)
				}
			}
		}
	}
}

// TestEvaluateAggregatedRejectsMixed: the aggregated path is pure-only.
func TestEvaluateAggregatedRejectsMixed(t *testing.T) {
	w := smallRandomMatrix(t, 30, 5, 3)
	p := DefaultParams()
	p.Strategy = Mixed
	s, err := NewSolver(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvaluateAggregated([][]int{{0, 1}}, newSpanAggregator(t, w, p, 2)); err == nil {
		t.Fatal("mixed aggregated evaluation should be rejected")
	}
}
