package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"bundling"
)

// kind is the traffic shape of a workload.
type kind int

const (
	kindHot   kind = iota // repeated evaluate lineups, served by the result cache
	kindFresh             // never-repeated evaluate lineups, priced by the engine
	kindSolve             // PATCH then cold solve, one corpus
)

// workload is one fixed traffic mix. Each boots its own daemons. The
// traffic's shape (key popularity, lineup and patch sizes) is assumed, not
// taken from observed use; README.md lists each parameter and its source.
type workload struct {
	name    string
	clients int
	kind    kind
	fleet   bool // bundled -workers plus two bundleworker processes
	mixed   bool // kindSolve: the mixed-bundling corpus (else pure)
	why     string
}

var workloads = []workload{
	{name: "evaluate-hot", clients: 2, kind: kindHot,
		why: "512 lineups, half the default result cache, drawn Zipf(1.1) (assumed): ~100% cache hits isolate the HTTP/JSON/middleware/cache plane and leave the engine idle"},
	{name: "evaluate-fresh", clients: 2, kind: kindFresh,
		why: "never-repeated lineups of an assumed shape on paper-scale corpora: every request misses the cache and runs the limiter, batcher and engine Evaluate"},
	{name: "evaluate-fleet", clients: 2, kind: kindFresh, fleet: true,
		why: "evaluate-fresh's traffic against bundled -workers and two bundleworkers: the only workload on cluster scatter/gather, transport and span feeds"},
	{name: "solve-pure", clients: 1, kind: kindSolve,
		why: "PATCH of 4 cells (assumed size) then a cold solve on the BENCH_greedy pure corpus: every merge fails the gain filter, so pruning and pricing dominate"},
	{name: "solve-mixed", clients: 1, kind: kindSolve, mixed: true,
		why: "the same loop on the mixed corpus, where merges are accepted: a pure-only engine change that costs mixed bundling shows up here"},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// evaluates reports whether the workload sends evaluates (paper scale)
// rather than patches and solves (bench scale).
func (w workload) evaluates() bool { return w.kind != kindSolve }

// corpus is one uploaded session: its ID, options and matrix.
type corpus struct {
	id   string
	opts bundling.Options
	w    *bundling.Matrix
}

// scaleData is a generated rating corpus as the generators need it.
type scaleData struct {
	w      *bundling.Matrix
	prices []float64
	top    []int // the 500 most-rated items, most-rated first
}

// benchScale is the 600×150 corpus behind BENCH_greedy.json, so warm-solve
// revenues can be pinned to its committed values.
var benchScale = bundling.DatasetConfig{Users: 600, Items: 150, RatingsPerUser: 18, MinDegree: 5, Seed: 42}

// loadScale generates a corpus and converts it at the paper's λ.
func loadScale(cfg bundling.DatasetConfig) (*scaleData, error) {
	ds, err := bundling.GenerateDataset(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	w, err := ds.WTP(bundling.DefaultLambda)
	if err != nil {
		return nil, fmt.Errorf("convert dataset: %w", err)
	}
	counts := make([]int, ds.Items)
	for _, r := range ds.Ratings {
		counts[r.Item]++
	}
	top := make([]int, ds.Items)
	for i := range top {
		top[i] = i
	}
	sort.SliceStable(top, func(a, b int) bool { return counts[top[a]] > counts[top[b]] })
	if len(top) > 500 {
		top = top[:500]
	}
	return &scaleData{w: w, prices: ds.Prices, top: top}, nil
}

// corporaFor lists the sessions a workload uploads over its scale's matrix:
// a pure and a mixed corpus for evaluates (paper scale), one corpus for
// solves (bench scale).
func corporaFor(wl workload, sd *scaleData) []corpus {
	pure := corpus{id: "pure", w: sd.w}
	mixed := corpus{id: "mixed", w: sd.w, opts: bundling.Options{Strategy: bundling.Mixed}}
	switch {
	case wl.evaluates():
		return []corpus{pure, mixed}
	case wl.mixed:
		return []corpus{mixed}
	default:
		return []corpus{pure}
	}
}

// lineup is one evaluate request: a corpus index and disjoint offers, each
// offer's items ascending and the offers ordered by first item, so the key
// the bench joins traces on is the server's canonical form too.
type lineup struct {
	corpus int
	offers [][]int
}

func (l lineup) key() string { return offersKey(l.offers) }

// offersKey renders an offer family as "1,2;5,7,9".
func offersKey(offers [][]int) string {
	var b strings.Builder
	for i, off := range offers {
		if i > 0 {
			b.WriteByte(';')
		}
		for k, it := range off {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(it))
		}
	}
	return b.String()
}

// cellsKey renders a patch the way offersKey renders a lineup.
func cellsKey(cells []bundling.DeltaCell) string {
	var b strings.Builder
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d,%d,%g,%t", c.Consumer, c.Item, c.Value, c.Delete)
	}
	return b.String()
}

// newLineup draws 2–5 disjoint offers of 2–4 items each from items.
func newLineup(rng *rand.Rand, items []int) [][]int {
	n := 2 + rng.Intn(4)
	used := map[int]bool{}
	offers := make([][]int, 0, n)
	for len(offers) < n {
		size := 2 + rng.Intn(3)
		off := make([]int, 0, size)
		for len(off) < size {
			it := items[rng.Intn(len(items))]
			if !used[it] {
				used[it] = true
				off = append(off, it)
			}
		}
		sort.Ints(off)
		offers = append(offers, off)
	}
	sort.Slice(offers, func(a, b int) bool { return offers[a][0] < offers[b][0] })
	return offers
}

// hotPool is evaluate-hot's fixed key set: 256 distinct lineups per corpus,
// 512 keys in all — half the server's 1024-entry result cache, so after one
// warm-up pass every phase request is a hit.
func hotPool(seed int64, items []int, corpora int) []lineup {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var pool []lineup
	for len(pool) < 256*corpora {
		l := lineup{corpus: len(pool) % corpora, offers: newLineup(rng, items)}
		k := strconv.Itoa(l.corpus) + "/" + l.key()
		if !seen[k] {
			seen[k] = true
			pool = append(pool, l)
		}
	}
	return pool
}

// hotStream draws pool keys Zipf(s=1.1), one stream per client.
type hotStream struct {
	pool []lineup
	zipf *rand.Zipf
}

func newHotStream(seed int64, client int, pool []lineup) *hotStream {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	return &hotStream{pool: pool, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))}
}

func (h *hotStream) next() lineup { return h.pool[h.zipf.Uint64()] }

// freshStream yields never-repeated lineups, alternating the corpora.
type freshStream struct {
	rng     *rand.Rand
	items   []int
	corpora int
	n       int
	seen    map[string]bool
}

func newFreshStream(seed int64, client int, items []int, corpora int) *freshStream {
	return &freshStream{
		rng:     rand.New(rand.NewSource(seed*1000 + 100 + int64(client))),
		items:   items,
		corpora: corpora,
		seen:    map[string]bool{},
	}
}

func (f *freshStream) next() lineup {
	c := f.n % f.corpora
	f.n++
	for {
		l := lineup{corpus: c, offers: newLineup(f.rng, f.items)}
		k := strconv.Itoa(c) + "/" + l.key()
		if !f.seen[k] {
			f.seen[k] = true
			return l
		}
	}
}

// patchStream yields 4-cell patches: each cell either sets a random
// coordinate to a rating-derived WTP or deletes a currently non-zero cell,
// with equal odds, so the corpus density stays put over a phase. It tracks
// the non-zero cells it has created and deleted itself, so the stream is a
// function of the seed alone.
type patchStream struct {
	rng    *rand.Rand
	m, n   int
	prices []float64
	nz     [][2]int       // non-zero coordinates
	at     map[[2]int]int // coordinate → index in nz
}

func newPatchStream(seed int64, w *bundling.Matrix, prices []float64) *patchStream {
	p := &patchStream{
		rng:    rand.New(rand.NewSource(seed*1000 + 200)),
		m:      w.Consumers(),
		n:      w.Items(),
		prices: prices,
		at:     map[[2]int]int{},
	}
	for i := 0; i < w.Items(); i++ {
		for _, e := range w.Postings(i) {
			p.add([2]int{e.Consumer, i})
		}
	}
	return p
}

func (p *patchStream) add(c [2]int) {
	if _, ok := p.at[c]; ok {
		return
	}
	p.at[c] = len(p.nz)
	p.nz = append(p.nz, c)
}

func (p *patchStream) remove(c [2]int) {
	i, ok := p.at[c]
	if !ok {
		return
	}
	last := p.nz[len(p.nz)-1]
	p.nz[i] = last
	p.at[last] = i
	p.nz = p.nz[:len(p.nz)-1]
	delete(p.at, c)
}

// cellsPerPatch is the size of every solve-* patch.
const cellsPerPatch = 4

func (p *patchStream) next() []bundling.DeltaCell {
	cells := make([]bundling.DeltaCell, 0, cellsPerPatch)
	touched := map[[2]int]bool{}
	for len(cells) < cellsPerPatch {
		if p.rng.Intn(2) == 0 && len(p.nz) > 0 {
			c := p.nz[p.rng.Intn(len(p.nz))]
			if touched[c] {
				continue
			}
			touched[c] = true
			p.remove(c)
			cells = append(cells, bundling.DeltaCell{Consumer: c[0], Item: c[1], Delete: true})
			continue
		}
		c := [2]int{p.rng.Intn(p.m), p.rng.Intn(p.n)}
		if touched[c] {
			continue
		}
		touched[c] = true
		stars := 1 + p.rng.Intn(5)
		value := float64(stars) / 5 * bundling.DefaultLambda * p.prices[c[1]]
		p.add(c)
		cells = append(cells, bundling.DeltaCell{Consumer: c[0], Item: c[1], Value: value})
	}
	return cells
}

// solveAlgorithms are the algorithms solve-* rotates through. Components
// (no work) and FreqItemset (8–18 s per solve) are left out.
var solveAlgorithms = []string{"optimal2", "matching", "greedy"}

// algStream yields solveAlgorithms in seeded permutations, so every run of
// three consecutive steps solves each algorithm once.
type algStream struct {
	rng   *rand.Rand
	cycle []string
}

func newAlgStream(seed int64) *algStream {
	return &algStream{rng: rand.New(rand.NewSource(seed*1000 + 300))}
}

func (a *algStream) next() string {
	if len(a.cycle) == 0 {
		a.cycle = append([]string(nil), solveAlgorithms...)
		a.rng.Shuffle(len(a.cycle), func(i, j int) { a.cycle[i], a.cycle[j] = a.cycle[j], a.cycle[i] })
	}
	alg := a.cycle[0]
	a.cycle = a.cycle[1:]
	return alg
}
