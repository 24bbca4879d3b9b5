package adoption

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 0); err == nil {
		t.Error("expected error for γ = 0")
	}
	if _, err := New(-1, 1, 0); err == nil {
		t.Error("expected error for γ < 0")
	}
	if _, err := New(1, 0, 0); err == nil {
		t.Error("expected error for α = 0")
	}
	if _, err := New(1, 1, 0); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestStepSemantics(t *testing.T) {
	m := Step()
	if !m.Deterministic() {
		t.Fatal("Step() should be deterministic")
	}
	cases := []struct {
		price, wtp float64
		want       float64
	}{
		{5, 10, 1},  // wtp above price
		{10, 10, 1}, // equality adopts (the ε convention)
		{10.1, 10, 0},
		{0.01, 0, 0}, // zero WTP never adopts a positive price
	}
	for _, c := range cases {
		if got := m.Probability(c.price, c.wtp); got != c.want {
			t.Errorf("P(adopt | p=%g, w=%g) = %g, want %g", c.price, c.wtp, got, c.want)
		}
	}
}

func TestSigmoidMidpoint(t *testing.T) {
	m, err := New(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Probability(10, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P at w=p should be 0.5, got %g", got)
	}
	// Monotone: decreasing in price, increasing in wtp.
	if m.Probability(9, 10) <= m.Probability(11, 10) {
		t.Error("probability should decrease with price")
	}
	if m.Probability(10, 11) <= m.Probability(10, 9) {
		t.Error("probability should increase with wtp")
	}
}

func TestGammaSteepness(t *testing.T) {
	lowG, _ := New(0.1, 1, 0)
	highG, _ := New(10, 1, 0)
	// Above the midpoint the steeper curve gives higher probability.
	if highG.Probability(8, 10) <= lowG.Probability(8, 10) {
		t.Error("steeper γ should be closer to 1 above midpoint")
	}
	// Below the midpoint the steeper curve gives lower probability.
	if highG.Probability(12, 10) >= lowG.Probability(12, 10) {
		t.Error("steeper γ should be closer to 0 below midpoint")
	}
}

func TestAlphaBias(t *testing.T) {
	unbiased, _ := New(1, 1, 0)
	favor, _ := New(1, 1.25, 0)
	against, _ := New(1, 0.75, 0)
	p := unbiased.Probability(10, 10)
	if favor.Probability(10, 10) <= p {
		t.Error("α > 1 should raise adoption probability")
	}
	if against.Probability(10, 10) >= p {
		t.Error("α < 1 should lower adoption probability")
	}
}

func TestNumericalStability(t *testing.T) {
	m, _ := New(100, 1, 0)
	if got := m.Probability(1e6, 0); got != 0 {
		t.Errorf("extreme price should give 0, got %g", got)
	}
	if got := m.Probability(0, 1e6); got != 1 {
		t.Errorf("extreme wtp should give 1, got %g", got)
	}
	if math.IsNaN(m.Probability(1e308, 1e308)) {
		t.Error("NaN probability")
	}
}

func TestExpectedAdopters(t *testing.T) {
	m := Step()
	wtps := []float64{5, 10, 15, 20}
	if got := m.ExpectedAdopters(10, wtps); got != 3 {
		t.Errorf("ExpectedAdopters(10) = %g, want 3", got)
	}
	if got := m.ExpectedAdopters(25, wtps); got != 0 {
		t.Errorf("ExpectedAdopters(25) = %g, want 0", got)
	}
	sig, _ := New(1, 1, 0)
	got := sig.ExpectedAdopters(10, wtps)
	var want float64
	for _, w := range wtps {
		want += sig.Probability(10, w)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("sigmoid ExpectedAdopters = %g, want %g", got, want)
	}
}

func TestAdoptsDeterministic(t *testing.T) {
	m := Step()
	rng := rand.New(rand.NewSource(1))
	if !m.Adopts(5, 10, rng) {
		t.Error("should adopt when wtp > price")
	}
	if m.Adopts(15, 10, rng) {
		t.Error("should not adopt when wtp < price")
	}
}

func TestStepGammaThresholdShortCircuit(t *testing.T) {
	m, _ := New(StepGammaThreshold, 1, DefaultEpsilon)
	if !m.Deterministic() {
		t.Error("γ at threshold should be treated as a step function")
	}
	m2, _ := New(StepGammaThreshold/2, 1, DefaultEpsilon)
	if m2.Deterministic() {
		t.Error("γ below threshold should stay sigmoid")
	}
}

// TestQuickProbabilityBounds: probabilities always lie in [0,1] and are
// monotone in wtp.
func TestQuickProbabilityBounds(t *testing.T) {
	f := func(gRaw, aRaw, price, w1, w2 float64) bool {
		g := math.Abs(gRaw)
		if g == 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			g = 1
		}
		a := math.Mod(math.Abs(aRaw), 2) + 0.1
		m, err := New(g, a, DefaultEpsilon)
		if err != nil {
			return false
		}
		p := math.Abs(price)
		lo, hi := math.Abs(w1), math.Abs(w2)
		if lo > hi {
			lo, hi = hi, lo
		}
		pl, ph := m.Probability(p, lo), m.Probability(p, hi)
		return pl >= 0 && pl <= 1 && ph >= 0 && ph <= 1 && pl <= ph+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSigmoidApproachesStep: as γ grows the sigmoid converges to the
// step function away from the w = p boundary.
func TestQuickSigmoidApproachesStep(t *testing.T) {
	f := func(priceRaw, wtpRaw float64) bool {
		price := math.Mod(math.Abs(priceRaw), 100) + 1
		wtp := math.Mod(math.Abs(wtpRaw), 100) + 1
		if math.Abs(price-wtp) < 0.5 {
			return true // skip the boundary
		}
		m, _ := New(9999, 1, DefaultEpsilon) // just below the short-circuit
		got := m.Probability(price, wtp)
		step := Step().Probability(price, wtp)
		return math.Abs(got-step) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
