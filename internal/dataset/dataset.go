// Package dataset provides the rating-data substrate of the reproduction.
//
// The paper evaluates on the UIC Amazon crawl (Books category), reduced by
// iterative 10-core filtering to 4,449 users × 5,028 items × 108,291
// ratings. That crawl is proprietary/unavailable, so this package generates
// a synthetic corpus matching every marginal the paper reports (see
// DESIGN.md):
//
//   - rating value distribution: 3%, 5%, 13%, 29%, 49% for stars 1..5;
//   - item list prices: 50% under $10, 45% in $10-20, 4% above $20;
//   - heavy-tailed user activity and item popularity;
//   - every user and item retains ≥ 10 ratings after k-core filtering.
//
// The generator is deterministic given a seed. A CSV loader/saver is
// provided so the real dataset can be substituted when available.
package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"bundling/internal/wtp"
)

// Dataset is a rating corpus: a set of (user, item, stars) triples plus the
// per-item list price. Users and items are dense 0-based ids.
type Dataset struct {
	Users   int
	Items   int
	Ratings []wtp.Rating
	Prices  []float64
}

// PaperScaleConfig returns the generator configuration that matches the
// paper's post-filtering corpus statistics.
func PaperScaleConfig() GenConfig {
	return GenConfig{
		Users:          4449,
		Items:          5028,
		RatingsPerUser: 13, // yields ≈108k ratings after the 10-core filter
		MinDegree:      10,
		Seed:           1,
	}
}

// GenConfig configures the synthetic generator.
type GenConfig struct {
	Users          int
	Items          int
	RatingsPerUser float64 // mean ratings per user before filtering
	MinDegree      int     // k for the iterative k-core filter (paper: 10)
	Seed           int64
	// Genres is the number of latent taste clusters (0 selects the
	// default). Real rating data exhibits co-rating structure — users who
	// rate one fantasy novel rate others too — which is what gives bundles
	// shared audiences and makes itemsets frequent; the generator
	// reproduces it by giving every user and item latent genres and
	// drawing most of a user's ratings from her preferred genres.
	Genres int
	// GenreBias ∈ [0,1] is the probability a rating is drawn from one of
	// the user's preferred genres (0 selects the default 0.8).
	GenreBias float64
}

// DefaultGenres is the latent-cluster count used when GenConfig.Genres is 0.
const DefaultGenres = 12

// defaultGenreBias is used when GenConfig.GenreBias is 0.
const defaultGenreBias = 0.8

// starCDF encodes the paper's rating distribution: 3/5/13/29/49%.
var starCDF = [5]float64{0.03, 0.08, 0.21, 0.50, 1.00}

// Generate builds a synthetic dataset per the configuration. Item
// popularity follows a Zipf-like law so that, as in real rating data, a few
// items attract many ratings; the k-core filter then trims sparse rows and
// columns exactly as the paper's pre-processing does.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.Users <= 0 || cfg.Items <= 0 {
		return nil, fmt.Errorf("dataset: non-positive dimensions %d×%d", cfg.Users, cfg.Items)
	}
	if cfg.RatingsPerUser <= 0 {
		return nil, fmt.Errorf("dataset: ratings per user %g must be > 0", cfg.RatingsPerUser)
	}
	if cfg.MinDegree < 0 {
		return nil, fmt.Errorf("dataset: negative min degree %d", cfg.MinDegree)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	genres := cfg.Genres
	if genres <= 0 {
		genres = DefaultGenres
	}
	bias := cfg.GenreBias
	if bias <= 0 {
		bias = defaultGenreBias
	}
	prices := make([]float64, cfg.Items)
	itemGenre := make([]int, cfg.Items)
	for i := range prices {
		prices[i] = samplePrice(rng)
		itemGenre[i] = rng.Intn(genres)
	}
	// Per-genre item lists plus Zipf-ish global popularity weights
	// (exponent < 1 keeps the tail heavy without starving most items below
	// the k-core threshold).
	byGenre := make([][]int, genres)
	for i, g := range itemGenre {
		byGenre[g] = append(byGenre[g], i)
	}
	weights := make([]float64, cfg.Items)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 0.6)
		wsum += weights[i]
	}
	cum := make([]float64, cfg.Items)
	acc := 0.0
	for i, w := range weights {
		acc += w / wsum
		cum[i] = acc
	}
	pickGlobal := func() int {
		x := rng.Float64()
		return sort.SearchFloat64s(cum, x)
	}
	seen := make(map[int64]bool)
	var ratings []wtp.Rating
	for u := 0; u < cfg.Users; u++ {
		// Each user prefers two genres; ratings land there with prob bias.
		g1 := rng.Intn(genres)
		g2 := rng.Intn(genres)
		// User activity: uniform around the configured mean, floored at
		// MinDegree+2 so the k-core filter keeps most users.
		k := cfg.MinDegree + 2 + rng.Intn(int(2*cfg.RatingsPerUser)+1)
		for r := 0; r < k; r++ {
			var it int
			if rng.Float64() < bias {
				g := g1
				if rng.Intn(2) == 1 {
					g = g2
				}
				if len(byGenre[g]) == 0 {
					it = pickGlobal()
				} else {
					it = byGenre[g][rng.Intn(len(byGenre[g]))]
				}
			} else {
				it = pickGlobal()
			}
			key := int64(u)*int64(cfg.Items) + int64(it)
			if seen[key] {
				continue
			}
			seen[key] = true
			// Star values stay independent across items (the classic
			// Adams-Yellen setting): genres drive who co-rates what, not
			// how high the ratings are, so bundle gains come from the
			// variance in willingness to pay the paper's model exploits.
			ratings = append(ratings, wtp.Rating{Consumer: u, Item: it, Stars: sampleStars(rng)})
		}
	}
	ds := &Dataset{Users: cfg.Users, Items: cfg.Items, Ratings: ratings, Prices: prices}
	if cfg.MinDegree > 0 {
		ds = ds.KCore(cfg.MinDegree)
	}
	return ds, nil
}

// sampleStars draws a star rating from the paper's distribution.
func sampleStars(rng *rand.Rand) int {
	x := rng.Float64()
	for s, c := range starCDF {
		if x <= c {
			return s + 1
		}
	}
	return 5
}

// samplePrice draws a list price from the paper's distribution: 50% of
// items below $10, 45% in $10-20, 4% above $20 (rounded to cents).
func samplePrice(rng *rand.Rand) float64 {
	x := rng.Float64()
	var p float64
	switch {
	case x < 0.50:
		p = 2 + rng.Float64()*8 // $2-10
	case x < 0.95:
		p = 10 + rng.Float64()*10 // $10-20
	default:
		p = 20 + rng.Float64()*30 // $20-50
	}
	return math.Round(p*100) / 100
}

// KCore iteratively removes users and items with fewer than k ratings until
// every remaining user and item has at least k, re-densifying ids. This is
// the paper's pre-processing step (Sec. 6.1.1).
func (d *Dataset) KCore(k int) *Dataset {
	ratings := d.Ratings
	for {
		uDeg := make([]int, d.Users)
		iDeg := make([]int, d.Items)
		for _, r := range ratings {
			uDeg[r.Consumer]++
			iDeg[r.Item]++
		}
		kept := ratings[:0:0]
		for _, r := range ratings {
			if uDeg[r.Consumer] >= k && iDeg[r.Item] >= k {
				kept = append(kept, r)
			}
		}
		if len(kept) == len(ratings) {
			ratings = kept
			break
		}
		ratings = kept
	}
	// Re-densify ids.
	uMap := make(map[int]int)
	iMap := make(map[int]int)
	for _, r := range ratings {
		if _, ok := uMap[r.Consumer]; !ok {
			uMap[r.Consumer] = len(uMap)
		}
		if _, ok := iMap[r.Item]; !ok {
			iMap[r.Item] = len(iMap)
		}
	}
	out := &Dataset{
		Users:   len(uMap),
		Items:   len(iMap),
		Ratings: make([]wtp.Rating, len(ratings)),
		Prices:  make([]float64, len(iMap)),
	}
	for idx, r := range ratings {
		out.Ratings[idx] = wtp.Rating{Consumer: uMap[r.Consumer], Item: iMap[r.Item], Stars: r.Stars}
	}
	for old, item := range iMap {
		out.Prices[item] = d.Prices[old]
	}
	return out
}

// WTP converts the dataset into a willingness-to-pay matrix at conversion
// factor λ (Sec. 6.1.1).
func (d *Dataset) WTP(lambda float64) (*wtp.Matrix, error) {
	return wtp.FromRatings(d.Users, d.Items, d.Ratings, d.Prices, lambda)
}

// SampleItems returns a dataset restricted to n randomly selected items
// (all users retained), as in the paper's weighted-set-packing comparison
// (Sec. 6.4). Users left with no ratings keep their ids; the bundling
// algorithms ignore them.
func (d *Dataset) SampleItems(n int, rng *rand.Rand) *Dataset {
	if n >= d.Items {
		return d
	}
	perm := rng.Perm(d.Items)[:n]
	iMap := make(map[int]int, n)
	prices := make([]float64, n)
	for newID, old := range perm {
		iMap[old] = newID
		prices[newID] = d.Prices[old]
	}
	var ratings []wtp.Rating
	for _, r := range d.Ratings {
		if id, ok := iMap[r.Item]; ok {
			ratings = append(ratings, wtp.Rating{Consumer: r.Consumer, Item: id, Stars: r.Stars})
		}
	}
	return &Dataset{Users: d.Users, Items: n, Ratings: ratings, Prices: prices}
}

// CloneUsers returns a dataset with the user population replicated factor
// times (the paper's Fig. 7(a) scalability workload). factor = 1 returns
// the dataset unchanged.
func (d *Dataset) CloneUsers(factor int) *Dataset {
	if factor <= 1 {
		return d
	}
	out := &Dataset{
		Users:  d.Users * factor,
		Items:  d.Items,
		Prices: d.Prices,
	}
	out.Ratings = make([]wtp.Rating, 0, len(d.Ratings)*factor)
	for c := 0; c < factor; c++ {
		off := c * d.Users
		for _, r := range d.Ratings {
			out.Ratings = append(out.Ratings, wtp.Rating{Consumer: r.Consumer + off, Item: r.Item, Stars: r.Stars})
		}
	}
	return out
}

// Stats summarizes the dataset the way the paper reports it.
type Stats struct {
	Users, Items, Ratings int
	StarShare             [5]float64 // fraction of ratings with 1..5 stars
	PriceShare            [3]float64 // <$10, $10-20, >$20
	MeanRatingsPerUser    float64
	MeanRatingsPerItem    float64
}

// Summarize computes corpus statistics.
func (d *Dataset) Summarize() Stats {
	st := Stats{Users: d.Users, Items: d.Items, Ratings: len(d.Ratings)}
	for _, r := range d.Ratings {
		st.StarShare[r.Stars-1]++
	}
	if len(d.Ratings) > 0 {
		for i := range st.StarShare {
			st.StarShare[i] /= float64(len(d.Ratings))
		}
		st.MeanRatingsPerUser = float64(len(d.Ratings)) / float64(d.Users)
		st.MeanRatingsPerItem = float64(len(d.Ratings)) / float64(d.Items)
	}
	for _, p := range d.Prices {
		switch {
		case p < 10:
			st.PriceShare[0]++
		case p <= 20:
			st.PriceShare[1]++
		default:
			st.PriceShare[2]++
		}
	}
	if d.Items > 0 {
		for i := range st.PriceShare {
			st.PriceShare[i] /= float64(d.Items)
		}
	}
	return st
}

// WriteCSV emits the dataset as two CSV sections: a "price" row per item
// and a "rating" row per observation.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	for i, p := range d.Prices {
		if err := cw.Write([]string{"price", strconv.Itoa(i), strconv.FormatFloat(p, 'f', 2, 64)}); err != nil {
			return err
		}
	}
	for _, r := range d.Ratings {
		if err := cw.Write([]string{"rating", strconv.Itoa(r.Consumer), strconv.Itoa(r.Item), strconv.Itoa(r.Stars)}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV (or hand-assembled real
// data in the same format).
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	d := &Dataset{}
	prices := make(map[int]float64)
	maxItem, maxUser := -1, -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv: %w", err)
		}
		switch rec[0] {
		case "price":
			if len(rec) != 3 {
				return nil, fmt.Errorf("dataset: malformed price row %q", rec)
			}
			item, err := strconv.Atoi(rec[1])
			if err != nil {
				return nil, fmt.Errorf("dataset: price item id: %w", err)
			}
			if item < 0 {
				return nil, fmt.Errorf("dataset: negative item id %d", item)
			}
			p, err := strconv.ParseFloat(rec[2], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: price value: %w", err)
			}
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("dataset: price %g must be finite and non-negative", p)
			}
			prices[item] = p
			if item > maxItem {
				maxItem = item
			}
		case "rating":
			if len(rec) != 4 {
				return nil, fmt.Errorf("dataset: malformed rating row %q", rec)
			}
			u, err1 := strconv.Atoi(rec[1])
			it, err2 := strconv.Atoi(rec[2])
			s, err3 := strconv.Atoi(rec[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dataset: malformed rating row %q", rec)
			}
			if u < 0 || it < 0 {
				return nil, fmt.Errorf("dataset: negative id in rating row %q", rec)
			}
			if s < 1 || s > wtp.MaxRating {
				return nil, fmt.Errorf("dataset: stars %d outside 1..%d", s, wtp.MaxRating)
			}
			d.Ratings = append(d.Ratings, wtp.Rating{Consumer: u, Item: it, Stars: s})
			if u > maxUser {
				maxUser = u
			}
			if it > maxItem {
				maxItem = it
			}
		default:
			return nil, fmt.Errorf("dataset: unknown row kind %q", rec[0])
		}
	}
	// Every item in 0..maxItem needs a price row, so an item id at or above
	// the price-row count is guaranteed-missing — report it before sizing
	// the prices slice, which a corrupt sky-high id would otherwise blow up
	// to an absurd allocation. (Sky-high user ids are caught downstream by
	// the WTP matrix's dimension limit.)
	if maxItem >= len(prices) {
		return nil, fmt.Errorf("dataset: item id %d but only %d price rows; missing price", maxItem, len(prices))
	}
	d.Users = maxUser + 1
	d.Items = maxItem + 1
	d.Prices = make([]float64, d.Items)
	for i := range d.Prices {
		if p, ok := prices[i]; ok {
			d.Prices[i] = p
		} else {
			return nil, fmt.Errorf("dataset: missing price for item %d", i)
		}
	}
	return d, nil
}
