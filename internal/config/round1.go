package config

import (
	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// roundMemo records round one of the pair-based algorithms (Optimal2 and
// Algorithms 1 and 2 all open by pricing every mergeable singleton pair):
// the pairs whose merge passed the gain filter, in (u, v) order, each with
// its verdict — the gain and quote evalMerge priced it at and the identity
// its merged node takes. A later run serves the survivors from the memo
// instead of pricing them, which yields the same candidates, since pricing
// a pair is deterministic. A survivor costs 48 bytes under mixed bundling
// (about 190 KB for the 4,020 survivors of the 600×150 mixed bench corpus)
// and 72 under pure; the merged nodes would pin their consumer vectors and
// mixed-bundling state (about 25 MB), so merge builds a node only for a
// merge a run takes.
//
// A memo is immutable once published on a Solver. A session's own memo has
// a nil stale set. A memo inherited through ApplyDelta is pending: its
// pairs are an ancestor generation's survivors, and stale marks every item
// a delta has touched since, whose pairs must be priced afresh.
type roundMemo struct {
	pairs []memoPair
	tails []utilTail // pure bundling: pairs' utility tails, aligned
	stale []bool     // per item; nil for a session's own memo
}

// memoPair is one round-one survivor: singleton indices u < v and the
// pair's verdict.
type memoPair struct {
	u, v int32
	id   ident
	verdict
}

// is reports whether the survivor is the pair (u, v).
func (p *memoPair) is(u, v int) bool { return int(p.u) == u && int(p.v) == v }

// derive returns the pending memo a session derived by a delta on the given
// items inherits: the same survivors, with the delta's items added to the
// stale set. It returns nil — the derived session's first solve builds
// round one from scratch — when there is no memo to pass on, or once more
// than half the items are stale, because a repair would then price most
// pairs anyway.
func (m *roundMemo) derive(cells []wtp.Cell, items int) *roundMemo {
	if m == nil {
		return nil
	}
	d := &roundMemo{pairs: m.pairs, tails: m.tails, stale: make([]bool, items)}
	copy(d.stale, m.stale)
	for _, c := range cells {
		d.stale[c.Item] = true
	}
	if d.staleItems() > items/2 {
		return nil
	}
	return d
}

// staleItems counts the items a pending memo marks stale.
func (m *roundMemo) staleItems() int {
	n := 0
	for _, s := range m.stale {
		if s {
			n++
		}
	}
	return n
}

// firstRound prices round one over the run's singleton nodes and returns
// the candidates evalPairs keeps, in (u, v) order — exactly what one
// evalPairs pass over every mergeable pair returns, so matching edges and
// greedy heap pushes are unchanged. The session memo decides what is priced,
// and the solve span records which path ran (round1) and how many pairs it
// priced (round1_priced):
//
//   - build: no memo, so every mergeable pair is priced and the survivors
//     become the session's memo;
//   - reuse: the session's own memo, so its survivors are served from it
//     and nothing is priced;
//   - repair: a pending memo from ApplyDelta, so the base survivors with no
//     stale item are served from it, every mergeable pair with a stale
//     item is priced, and the survivors become the session's memo;
//   - bypass: the memo does not apply — the run-to-end variant keeps
//     non-gaining pairs, and a size cap below 2 admits no pair — so round
//     one is priced in full and nothing is stored.
//
// A canceled run stores nothing: its evalPairs pass may be truncated.
// Concurrent first solves each price round one; the first to finish
// publishes the memo.
func (e *engine) firstRound(nodes []*node, keepAll bool) ([]pairResult, error) {
	memo := e.s.round1.Load()
	var jobs []pairJob
	var m verdicts
	path, priced := "build", 0
	switch {
	case keepAll || e.k < 2:
		path = "bypass"
		jobs, priced = e.pairJobs(nodes, nil)
	case memo == nil:
		jobs, priced = e.pairJobs(nodes, nil)
	case memo.stale == nil:
		path, m = "reuse", memo
		jobs = make([]pairJob, len(memo.pairs))
		for i, p := range memo.pairs {
			jobs[i] = pairJob{u: int(p.u), v: int(p.v)}
		}
	default:
		path, m = "repair", memo
		jobs, priced = e.pairJobs(nodes, memo)
	}
	sp := obs.SpanFrom(e.reqCtx)
	sp.Tag("round1", path)
	sp.Tag("round1_priced", priced)
	res := e.evalPairs(nodes, jobs, keepAll, m)
	if err := e.canceled(); err != nil {
		// A done context truncates evalPairs: the partial batch must
		// neither end the run looking converged nor be stored.
		return nil, err
	}
	if path == "build" || path == "repair" {
		e.s.round1.CompareAndSwap(memo, e.newRoundMemo(res))
	}
	return res, nil
}

// newRoundMemo records round one's candidates as the session's memo.
func (e *engine) newRoundMemo(res []pairResult) *roundMemo {
	m := &roundMemo{pairs: make([]memoPair, len(res))}
	if e.params.Strategy == Pure {
		m.tails = make([]utilTail, len(res))
	}
	for i := range res {
		v, t := verdictOf(&res[i])
		m.pairs[i] = memoPair{u: int32(res[i].u), v: int32(res[i].v), id: res[i].id, verdict: v}
		if m.tails != nil {
			m.tails[i] = t
		}
	}
	return m
}

// lookup serves every job of two items the memo does not mark stale: a
// survivor with its verdict, any other pair as rejected (it was priced and
// failed, or was not mergeable). Jobs and pairs are both in (u, v) order.
func (m *roundMemo) lookup(_ []*node, jobs []pairJob, res []pairResult, st []jobState) int {
	served, next := 0, 0
	for i, j := range jobs {
		if m.stale != nil && (m.stale[j.u] || m.stale[j.v]) {
			continue
		}
		for next < len(m.pairs) && (int(m.pairs[next].u) < j.u || int(m.pairs[next].u) == j.u && int(m.pairs[next].v) < j.v) {
			next++
		}
		if next < len(m.pairs) && m.pairs[next].is(j.u, j.v) {
			var t utilTail
			if m.tails != nil {
				t = m.tails[next]
			}
			res[i], st[i] = m.pairs[next].result(j, m.pairs[next].id, t), memoAccepted
		} else {
			st[i] = memoRejected
		}
		served++
	}
	return served
}

// store keeps nothing: firstRound publishes the pass's survivors as the
// session's memo.
func (*roundMemo) store([]*node, []pairJob, []pairResult, []jobState) {}

// pairJobs lists round one's candidate pairs in (u, v) order and counts
// those the memo cannot serve. Without a memo that is every mergeable
// pair, all to be priced. With a pending memo, a pair of two untouched
// items keeps the base verdict — a candidate exactly when it survived —
// and a pair with a stale item is re-checked for mergeability against the
// repaired singletons and priced.
func (e *engine) pairJobs(nodes []*node, memo *roundMemo) (jobs []pairJob, priced int) {
	next := 0 // cursor into memo.pairs, which is in the same (u, v) order
	for u := 0; u < len(nodes); u++ {
		for v := u + 1; v < len(nodes); v++ {
			cand := memo != nil && next < len(memo.pairs) && memo.pairs[next].is(u, v)
			if cand {
				next++
			}
			if memo == nil || memo.stale[u] || memo.stale[v] {
				if cand = e.mergeable(nodes[u], nodes[v]); cand {
					priced++
				}
			}
			if cand {
				jobs = append(jobs, pairJob{u: u, v: v})
			}
		}
	}
	return jobs, priced
}
