package pricing

import (
	"math/rand"
	"testing"
)

func randomWTPs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 30
	}
	return out
}

func BenchmarkPriceUtility1000(b *testing.B) {
	pr := Default()
	wtps := randomWTPs(1000, 1)
	obj := Objective{ProfitWeight: 0.8, UnitCost: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.PriceUtility(wtps, obj)
	}
}

func BenchmarkPriceMixed1000(b *testing.B) {
	pr := Default()
	rng := rand.New(rand.NewSource(2))
	n := 1000
	off := MixedOffer{
		CurPay:     make([]float64, n),
		CurSurplus: make([]float64, n),
		WB:         make([]float64, n),
		Lo:         8, Hi: 20,
		Obj: RevenueObjective(),
	}
	for j := 0; j < n; j++ {
		off.CurPay[j] = rng.Float64() * 10
		off.CurSurplus[j] = rng.Float64() * 4
		off.WB[j] = rng.Float64() * 25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.PriceMixed(off)
	}
}
