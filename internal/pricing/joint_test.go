package pricing

import (
	"math"
	"math/rand"
	"testing"

	"bundling/internal/adoption"
)

func TestPriceMixedJointValidation(t *testing.T) {
	pr := Default()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for misaligned vectors")
		}
	}()
	pr.PriceMixedJoint(JointOffer{W1: []float64{1}, W2: nil, WB: []float64{1}}, 10)
}

// TestJointDominatesSeed: seeding with a triple guarantees the result is
// at least as good, so joint pricing can never lose to the incremental
// policy when seeded with its solution.
func TestJointDominatesSeed(t *testing.T) {
	pr := Default()
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		off := JointOffer{
			W1: make([]float64, n),
			W2: make([]float64, n),
			WB: make([]float64, n),
		}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				off.W1[j] = rng.Float64() * 20
			}
			if rng.Float64() < 0.7 {
				off.W2[j] = rng.Float64() * 20
			}
			off.WB[j] = off.W1[j] + off.W2[j]
		}
		// Incremental policy: price components individually, then the
		// bundle in the Guiltinan window.
		q1 := pr.PriceUtility(off.W1, RevenueObjective())
		q2 := pr.PriceUtility(off.W2, RevenueObjective())
		if q1.Price <= 0 || q2.Price <= 0 {
			continue
		}
		lo := math.Max(q1.Price, q2.Price)
		hi := q1.Price + q2.Price
		bestInc := JointQuote{P1: q1.Price, P2: q2.Price}
		for k := 1; k <= 50; k++ {
			pb := lo + (hi-lo)*float64(k)/51
			rev := pr.jointRevenue(off, q1.Price, q2.Price, pb)
			if rev > bestInc.Revenue {
				bestInc.PB = pb
				bestInc.Revenue = rev
			}
		}
		joint := pr.PriceMixedJoint(off, 25, bestInc)
		if joint.Revenue < bestInc.Revenue-1e-9 {
			t.Fatalf("trial %d: joint %g below seeded incremental %g", trial, joint.Revenue, bestInc.Revenue)
		}
		if joint.Revenue > 0 {
			// Constraints hold on the winner.
			if joint.PB <= math.Max(joint.P1, joint.P2) || joint.PB >= joint.P1+joint.P2 {
				t.Fatalf("trial %d: joint price %v violates the window", trial, joint)
			}
		}
	}
}

// TestJointFindsKnownOptimum: hand-built market where the incremental
// policy is strictly suboptimal. Component audiences push the standalone
// prices low, which caps what the bundle can charge; joint pricing raises
// the component prices to unlock a better bundle price.
func TestJointFindsKnownOptimum(t *testing.T) {
	pr := Default()
	// Consumers: two A-fans at 10, two B-fans at 10, two AB-fans at (6, 6).
	off := JointOffer{
		W1: []float64{10, 10, 0, 0, 6, 6},
		W2: []float64{0, 0, 10, 10, 6, 6},
		WB: []float64{10, 10, 10, 10, 12, 12},
	}
	// Incremental: each component prices at 6 (four buyers, revenue 24,
	// beating 10·2 = 20); the AB-fans then buy both separately for 12, so
	// no bundle helps and the incremental total is 48.
	q1 := pr.PriceUtility(off.W1, RevenueObjective())
	if math.Abs(q1.Price-6) > 0.2 {
		t.Fatalf("unexpected standalone price %g", q1.Price)
	}
	incrementalTotal := 2 * q1.Revenue
	if math.Abs(incrementalTotal-48) > 0.5 {
		t.Fatalf("incremental total = %g, want 48", incrementalTotal)
	}
	// Joint pricing raises the components to 10 (2×20 from the fans) and
	// sells the bundle at 12 to the AB-fans (2×12): total 64.
	joint := pr.PriceMixedJoint(off, 40)
	if joint.Revenue < 63 {
		t.Fatalf("joint pricing should reach ≈64, got %+v", joint)
	}
	if joint.Revenue <= incrementalTotal {
		t.Fatalf("joint %g should strictly beat incremental %g", joint.Revenue, incrementalTotal)
	}
}

func TestJointStochastic(t *testing.T) {
	m, _ := adoption.New(1, 1, adoption.DefaultEpsilon)
	pr, _ := New(m, DefaultLevels)
	off := JointOffer{
		W1: []float64{10, 0, 5},
		W2: []float64{0, 10, 5},
		WB: []float64{10, 10, 10},
	}
	q := pr.PriceMixedJoint(off, 15)
	if q.Revenue <= 0 {
		t.Fatalf("stochastic joint quote: %+v", q)
	}
	step := Default().PriceMixedJoint(off, 15)
	if q.Revenue >= step.Revenue {
		t.Errorf("uncertain adoption %g should earn below the step model %g", q.Revenue, step.Revenue)
	}
}

func TestJointGridClamping(t *testing.T) {
	pr := Default()
	off := JointOffer{W1: []float64{10}, W2: []float64{10}, WB: []float64{20}}
	// Degenerate grids are clamped rather than rejected.
	a := pr.PriceMixedJoint(off, 0)
	b := pr.PriceMixedJoint(off, 1000)
	if a.Revenue < 0 || b.Revenue < 0 {
		t.Fatal("clamped grids should still work")
	}
}
