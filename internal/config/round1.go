package config

import (
	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// roundMemo records round one of the pair-based algorithms (Optimal2 and
// Algorithms 1 and 2 all open by pricing every mergeable singleton pair):
// the pairs whose merge passed the gain filter, in (u, v) order. Only the
// pair indices are kept — 8 bytes a survivor — because the merged nodes
// would pin their consumer vectors and mixed-bundling state (about 25 MB
// for the 4,020 survivors of the 600×150 mixed bench corpus); a later run
// re-prices the survivors instead, which yields the same nodes, since
// pricing a pair is deterministic.
//
// A memo is immutable once published on a Solver. A session's own memo has
// a nil stale set. A memo inherited through ApplyDelta is pending: its
// pairs are an ancestor generation's survivors, and stale marks every item
// a delta has touched since, whose pairs must be priced afresh.
type roundMemo struct {
	pairs []memoPair
	stale []bool // per item; nil for a session's own memo
}

// memoPair is one round-one survivor: singleton indices u < v.
type memoPair struct{ u, v int32 }

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
	d := &roundMemo{pairs: m.pairs, stale: make([]bool, items)}
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
//   - reuse: the session's own memo, so only its survivors are re-priced;
//   - repair: a pending memo from ApplyDelta, so the base survivors with no
//     stale item are re-priced, every mergeable pair with a stale item is
//     priced, and the survivors become the session's memo;
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
	path := "build"
	switch {
	case keepAll || e.k < 2:
		path = "bypass"
		jobs = e.pairJobs(nodes, nil)
	case memo == nil:
		jobs = e.pairJobs(nodes, nil)
	case memo.stale == nil:
		path = "reuse"
		jobs = make([]pairJob, len(memo.pairs))
		for i, p := range memo.pairs {
			jobs[i] = pairJob{u: int(p.u), v: int(p.v)}
		}
	default:
		path = "repair"
		jobs = e.pairJobs(nodes, memo)
	}
	sp := obs.SpanFrom(e.reqCtx)
	sp.Tag("round1", path)
	sp.Tag("round1_priced", len(jobs))
	res := e.evalPairs(nodes, jobs, keepAll)
	if err := e.canceled(); err != nil {
		// A done context truncates evalPairs: the partial batch must
		// neither end the run looking converged nor be stored.
		return nil, err
	}
	if path == "build" || path == "repair" {
		own := &roundMemo{pairs: make([]memoPair, len(res))}
		for i, r := range res {
			own.pairs[i] = memoPair{u: int32(r.u), v: int32(r.v)}
		}
		e.s.round1.CompareAndSwap(memo, own)
	}
	return res, nil
}

// pairJobs lists round one's candidate pairs in (u, v) order. Without a
// memo that is every mergeable pair. With a pending memo, a pair of two
// untouched items keeps the base verdict — a candidate exactly when it
// survived — and a pair with a stale item is re-checked for mergeability
// against the repaired singletons.
func (e *engine) pairJobs(nodes []*node, memo *roundMemo) []pairJob {
	var jobs []pairJob
	next := 0 // cursor into memo.pairs, which is in the same (u, v) order
	for u := 0; u < len(nodes); u++ {
		for v := u + 1; v < len(nodes); v++ {
			cand := memo != nil && next < len(memo.pairs) && memo.pairs[next] == memoPair{u: int32(u), v: int32(v)}
			if cand {
				next++
			}
			if memo == nil || memo.stale[u] || memo.stale[v] {
				cand = e.mergeable(nodes[u], nodes[v])
			}
			if cand {
				jobs = append(jobs, pairJob{u: u, v: v})
			}
		}
	}
	return jobs
}
