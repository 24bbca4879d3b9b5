package config

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"bundling/internal/pricing"
)

// lineage is what every session ApplyDelta derives from one NewSolver
// shares: the counter that hands out node identities and the later-round
// memo keyed by them.
//
// Every node carries an identity that fixes its content. NewSolver gives
// each singleton prototype one, ApplyDelta gives each touched item's
// re-priced prototype a new one, and a merged node takes the identity of
// the verdict it was built from, which the memos store with the verdict.
// So one merge tree keeps one identity across the generations and
// algorithms of a lineage, and a tree holding a touched item gets a new
// one. An identity never repeats within a lineage: the 32-bit counter
// hands out none once it runs out (see newIDs), and ApplyDelta starts a
// new lineage once half of them are spent.
type lineage struct {
	ids  atomic.Uint32 // the last identity handed out
	memo pairMemo
}

// ident is a node's identity within its lineage; 0 is none, and a node
// without one is never looked up or stored.
type ident uint32

func newLineage(p Params) *lineage {
	l := &lineage{}
	l.memo.symmetric = p.Strategy == Mixed
	l.memo.lists = make(map[ident]*memoList)
	return l
}

// newIDs reserves n consecutive identities and returns the first, or 0
// once the lineage has too few left. At about 1,000 new identities a solve
// and 70 solves a second, 2^32 of them last about 17 hours.
func (l *lineage) newIDs(n int) ident {
	for {
		last := l.ids.Load()
		if uint64(last)+uint64(n) > math.MaxUint32 {
			return 0
		}
		if l.ids.CompareAndSwap(last, last+uint32(n)) {
			return ident(last + 1)
		}
	}
}

// spent reports whether half of the lineage's identities are handed out,
// past which ApplyDelta starts a new lineage.
func (l *lineage) spent() bool { return l.ids.Load() > math.MaxUint32/2 }

// maxMemoPairs bounds the later-round memo's verdicts. It is set from the
// working set of the 600×150 mixed bench corpus under a loop of 4-cell
// deltas, each followed by one solve (optimal2, matching and greedy in
// shuffled turn), which looks up about 4,900 later-round candidates a
// solve. Over 300 steps the memo served 17% of them at 12k verdicts, 30%
// at 16k, 49% at 24k and 57% at 32k: a solve reuses mostly what the last
// solve of the same algorithm priced, three steps back. At 24k the memo
// accounts for about 0.37 MB (see pairMemo.bytes); the daemon's peak RSS
// on that loop grows by several times what the memo holds, so the bound
// trades reuse against it.
const maxMemoPairs = 24 << 10

// verdicts is a store a pricing pass consults before pricing and feeds
// afterwards: the session's round-one memo or the lineage's later-round
// memo. lookup sets st[i] (and res[i] for a candidate) for every job whose
// verdict it holds and returns how many it served; store takes the jobs
// the pass priced (st[i] rejected or accepted).
type verdicts interface {
	lookup(nodes []*node, jobs []pairJob, res []pairResult, st []jobState) int
	store(nodes []*node, jobs []pairJob, res []pairResult, st []jobState)
}

// jobState is what a pricing pass knows of one job.
type jobState uint8

const (
	unpriced     jobState = iota // neither served nor priced: a canceled pass stopped first
	rejected                     // priced: infeasible or not gaining
	accepted                     // priced: a candidate
	memoRejected                 // a memo's verdict: not a candidate
	memoAccepted                 // a memo's verdict: a candidate
)

// kept reports whether the job is a candidate.
func (s jobState) kept() bool { return s == accepted || s == memoAccepted }

// pairMemo is the lineage's later-round memo: the verdict of every
// candidate merge a later round priced, keyed by the two nodes'
// identities. A verdict is a pure function of the two nodes, so a session
// of the lineage looks a job up instead of pricing it. Under mixed
// bundling the verdict does not depend on the argument order (the union
// and the combined market state add commutatively), so a pair is keyed by
// its two identities in either order; under pure bundling the gain
// q.Utility − a.util − b.util can differ in the last bit when a and b
// swap, so a pair is keyed in call order.
//
// Verdicts are held per owner node, the pair's newer identity (mixed) or
// the second argument's (pure), in lists sorted by the partner's identity:
// a rejection costs 4 bytes, a candidate 40. A lookup or store stamps the
// owner's list with the memo's clock, and once the memo holds more than
// maxMemoPairs verdicts the least recently used lists are dropped until it
// holds three quarters of that.
type pairMemo struct {
	symmetric bool

	mu      sync.Mutex
	lists   map[ident]*memoList // by owner identity
	entries int                 // verdicts held
	clock   uint64              // lookups and stores so far
}

// memoList is one owner's verdicts.
type memoList struct {
	used    uint64     // the memo's clock at the last lookup or store
	rejects []ident    // partners whose merge is not a candidate, ascending
	keeps   []memoKeep // candidates, by ascending partner
	tails   []utilTail // pure bundling: keeps' utility tails, aligned
}

// memoKeep is a candidate filed under its owner: the partner, the identity
// the merged node takes and the verdict.
type memoKeep struct {
	partner, id ident
	verdict
}

// verdict is a candidate's gain and its bundle's quote as the memos keep
// them, 32 bytes. A pure candidate's profit, surplus and utility are kept
// beside it (utilTail); a mixed candidate's are zero (see bundleQuote).
type verdict struct {
	gain float64
	q    pricing.Quote
}

// utilTail is the rest of a pure candidate's utility quote.
type utilTail struct{ profit, surplus, utility float64 }

// verdictOf splits candidate r into what the memos keep.
func verdictOf(r *pairResult) (verdict, utilTail) {
	return verdict{gain: r.gain, q: r.q.Quote}, utilTail{r.q.Profit, r.q.Surplus, r.q.Utility}
}

// result rebuilds the candidate of job j from its verdict, identity and
// tail.
func (v *verdict) result(j pairJob, id ident, t utilTail) pairResult {
	return pairResult{u: j.u, v: j.v, gain: v.gain, id: id,
		q: pricing.UtilityQuote{Quote: v.q, Profit: t.profit, Surplus: t.surplus, Utility: t.utility}}
}

// memoAdd is one verdict a memo files under its owner.
type memoAdd struct {
	owner, partner ident
	job            int
}

// key returns the owner and partner identities a job of a and b is filed
// under; ok is false when either node has no identity.
func (m *pairMemo) key(a, b *node) (owner, partner ident, ok bool) {
	if m.symmetric && a.id > b.id {
		return a.id, b.id, b.id != 0
	}
	return b.id, a.id, a.id != 0 && b.id != 0
}

func (m *pairMemo) lookup(nodes []*node, jobs []pairJob, res []pairResult, st []jobState) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	served := 0
	var l *memoList
	var owner ident // l's owner
	for i, j := range jobs {
		o, p, ok := m.key(nodes[j.u], nodes[j.v])
		if !ok {
			continue
		}
		if o != owner {
			if owner, l = o, m.lists[o]; l != nil {
				l.used = m.clock
			}
		}
		if l == nil {
			continue
		}
		if k, ok := l.find(p); ok {
			var t utilTail
			if l.tails != nil {
				t = l.tails[k]
			}
			res[i], st[i] = l.keeps[k].result(j, l.keeps[k].id, t), memoAccepted
			served++
		} else if _, ok := slices.BinarySearch(l.rejects, p); ok {
			st[i] = memoRejected
			served++
		}
	}
	return served
}

// store files the verdicts the pass priced, each under its owner's list,
// then drops least recently used lists if the memo is over its bound.
// Each list that gains verdicts is rebuilt at its exact length, so the
// memo's accounted bytes are the bytes it holds.
func (m *pairMemo) store(nodes []*node, jobs []pairJob, res []pairResult, st []jobState) {
	var adds []memoAdd
	for i, j := range jobs {
		if st[i] == rejected || st[i] == accepted {
			if o, p, ok := m.key(nodes[j.u], nodes[j.v]); ok {
				adds = append(adds, memoAdd{owner: o, partner: p, job: i})
			}
		}
	}
	if len(adds) == 0 {
		return
	}
	slices.SortFunc(adds, func(x, y memoAdd) int {
		return cmp.Or(cmp.Compare(x.owner, y.owner), cmp.Compare(x.partner, y.partner))
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	for len(adds) > 0 {
		n := 1
		for n < len(adds) && adds[n].owner == adds[0].owner {
			n++
		}
		l := m.lists[adds[0].owner]
		if l == nil {
			l = &memoList{}
			m.lists[adds[0].owner] = l
		}
		l.used = m.clock
		m.entries += l.file(adds[:n], res, st, !m.symmetric)
		adds = adds[n:]
	}
	if m.entries > maxMemoPairs {
		m.evict(maxMemoPairs * 3 / 4)
	}
}

// evict drops the least recently used lists, older owners first among
// lists last used together, until the memo holds at most target verdicts.
func (m *pairMemo) evict(target int) {
	owners := make([]ident, 0, len(m.lists))
	for o := range m.lists {
		owners = append(owners, o)
	}
	slices.SortFunc(owners, func(x, y ident) int {
		return cmp.Or(cmp.Compare(m.lists[x].used, m.lists[y].used), cmp.Compare(x, y))
	})
	for _, o := range owners {
		if m.entries <= target {
			return
		}
		m.entries -= len(m.lists[o].rejects) + len(m.lists[o].keeps)
		delete(m.lists, o)
	}
}

// find returns the index of partner p's candidate in the list.
func (l *memoList) find(p ident) (int, bool) {
	return slices.BinarySearchFunc(l.keeps, p, func(k memoKeep, p ident) int { return cmp.Compare(k.partner, p) })
}

// has reports whether the list holds a verdict for partner p.
func (l *memoList) has(p ident) bool {
	_, kept := l.find(p)
	_, rej := slices.BinarySearch(l.rejects, p)
	return kept || rej
}

// file merges an owner's new verdicts, sorted by partner, into the list,
// keeping pure candidates' tails when tails is set, and returns how many
// it added. A verdict the list already has (a concurrent solve priced the
// same pair) is kept as it was, and so is the first of two for one pair.
// It compacts adds in place.
func (l *memoList) file(adds []memoAdd, res []pairResult, st []jobState, tails bool) int {
	fresh, nr := adds[:0], 0
	var last ident // partner identities start at 1
	for _, a := range adds {
		if a.partner == last || l.has(a.partner) {
			continue
		}
		last = a.partner
		fresh = append(fresh, a)
		if !st[a.job].kept() {
			nr++
		}
	}
	if nr > 0 {
		rejects, i := make([]ident, 0, len(l.rejects)+nr), 0
		for _, a := range fresh {
			if st[a.job].kept() {
				continue
			}
			for ; i < len(l.rejects) && l.rejects[i] < a.partner; i++ {
				rejects = append(rejects, l.rejects[i])
			}
			rejects = append(rejects, a.partner)
		}
		l.rejects = append(rejects, l.rejects[i:]...)
	}
	if nk := len(fresh) - nr; nk > 0 {
		keeps, i := make([]memoKeep, 0, len(l.keeps)+nk), 0
		var kt []utilTail
		if tails {
			kt = make([]utilTail, 0, len(l.keeps)+nk)
		}
		for _, a := range fresh {
			if !st[a.job].kept() {
				continue
			}
			for ; i < len(l.keeps) && l.keeps[i].partner < a.partner; i++ {
				keeps = append(keeps, l.keeps[i])
				if tails {
					kt = append(kt, l.tails[i])
				}
			}
			v, t := verdictOf(&res[a.job])
			keeps = append(keeps, memoKeep{partner: a.partner, id: res[a.job].id, verdict: v})
			if tails {
				kt = append(kt, t)
			}
		}
		l.keeps = append(keeps, l.keeps[i:]...)
		if tails {
			l.tails = append(kt, l.tails[i:]...)
		}
	}
	return len(fresh)
}

// memoListBytes is what one owner's list costs besides its verdicts: the
// list header and its map slot (key, pointer and a control byte, rounded
// up).
const memoListBytes = int(unsafe.Sizeof(memoList{})) + 24

// bytes returns the memo's accounted bytes: every list's header, map slot
// and backing arrays.
func (m *pairMemo) bytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, l := range m.lists {
		n += memoListBytes + cap(l.rejects)*int(unsafe.Sizeof(ident(0))) + cap(l.keeps)*int(unsafe.Sizeof(memoKeep{})) + cap(l.tails)*int(unsafe.Sizeof(utilTail{}))
	}
	return n
}

// size returns the verdicts the memo holds.
func (m *pairMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries
}
