// Package adoption implements the paper's stochastic adoption model
// (Sec. 4.1). A consumer u adopts a bundle b offered at price p with
// probability
//
//	P(ν=1 | p, w) = 1 / (1 + exp(-γ(α·w - p + ε)))
//
// where w is u's willingness to pay for b. γ controls sensitivity to price
// (γ→∞ recovers the deterministic step function "adopt iff w ≥ p" used in
// the classic bundling literature), α models a bias for/against adoption,
// and ε is a small noise term that makes the step function's transition at
// w = p resolve to adoption.
package adoption

import (
	"fmt"
	"math"
	"math/rand"
)

// Default parameter values (paper Table 3).
const (
	DefaultGamma   = 1e6  // step-function limit
	DefaultAlpha   = 1.0  // unbiased
	DefaultEpsilon = 1e-6 // tie-break so w == p adopts under the step limit
)

// StepGammaThreshold is the γ above which the model short-circuits to the
// exact step function. With the price grids used in this codebase the
// sigmoid at γ ≥ 1e4 is indistinguishable from a step within float64.
const StepGammaThreshold = 1e4

// Model is an immutable adoption model. The zero value is invalid; use New
// or Step.
type Model struct {
	gamma, alpha, eps float64
	step              bool
}

// New returns a sigmoid adoption model. γ must be positive, α must be
// positive (α = 0 would make willingness to pay irrelevant).
func New(gamma, alpha, eps float64) (Model, error) {
	if gamma <= 0 {
		return Model{}, fmt.Errorf("adoption: γ=%g must be > 0", gamma)
	}
	if alpha <= 0 {
		return Model{}, fmt.Errorf("adoption: α=%g must be > 0", alpha)
	}
	return Model{gamma: gamma, alpha: alpha, eps: eps, step: gamma >= StepGammaThreshold}, nil
}

// Step returns the deterministic step-function model: adopt iff α·w ≥ p
// (the ε tie-break makes equality adopt), the convention of Adams & Yellen.
func Step() Model {
	m, _ := New(DefaultGamma, DefaultAlpha, DefaultEpsilon)
	return m
}

// Default returns the paper's default model (Table 3): γ=10⁶ (step), α=1.
func Default() Model { return Step() }

// Gamma returns the price-sensitivity parameter.
func (m Model) Gamma() float64 { return m.gamma }

// Alpha returns the adoption-bias parameter.
func (m Model) Alpha() float64 { return m.alpha }

// Deterministic reports whether the model behaves as an exact step function.
func (m Model) Deterministic() bool { return m.step }

// Probability returns P(adopt | price, wtp).
func (m Model) Probability(price, wtp float64) float64 {
	if m.step {
		if m.alpha*wtp-price+m.eps >= 0 {
			return 1
		}
		return 0
	}
	x := m.gamma * (m.alpha*wtp - price + m.eps)
	// Numerically stable logistic.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Adopts samples a Bernoulli adoption decision using rng. For deterministic
// models no randomness is consumed.
func (m Model) Adopts(price, wtp float64, rng *rand.Rand) bool {
	p := m.Probability(price, wtp)
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return rng.Float64() < p
}

// ExpectedAdopters returns F(p, ·) = Σ_u P(adopt | p, w_u) over the given
// willingness-to-pay values (Eq. 5).
func (m Model) ExpectedAdopters(price float64, wtps []float64) float64 {
	if m.step {
		n := 0
		for _, w := range wtps {
			if m.alpha*w-price+m.eps >= 0 {
				n++
			}
		}
		return float64(n)
	}
	var sum float64
	for _, w := range wtps {
		sum += m.Probability(price, w)
	}
	return sum
}
