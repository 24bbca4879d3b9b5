package config

import (
	"bundling/internal/wtp"
)

// ApplyDelta derives a new session serving the mutated corpus from this one,
// without re-indexing: the matrix is patched copy-on-write (wtp.WithDelta),
// the striped shard rebuilds only the stripes holding mutated consumers, and
// the priced singleton prototypes are repaired for the mutated items only.
// Re-pricing a singleton re-runs the Sec. 4.2 price-search over the item's
// patched consumer vector — the per-item WTP histogram the search walks is
// derived from that vector, so the repair is exactly a histogram rebuild for
// the touched items. Every untouched prototype (vector, quote, mixed-bundling
// state) is shared read-only with the receiver.
//
// The round-one memo (roundMemo) carries over too. Optimal2 and
// Algorithms 1 and 2 open by pricing every mergeable item pair, and a
// delta changes only the touched items' singletons, so a pair of two
// untouched items prices exactly as before. The derived session inherits
// the receiver's survivors with the touched items marked stale; its first
// pair-based solve serves the survivors that touch no stale item from
// their stored verdicts, prices every pair with a stale item, and merges
// both back in (u, v) order, so matching edges and greedy heap pushes are
// those of a rebuild. On the 600×150 bench corpus a 4-cell delta leaves at
// most 4 × 149 pairs to price instead of 11,115. If the receiver was never
// solved, it passes on its own inherited memo with the union of both
// deltas' items marked; the memo is dropped (the first solve builds it
// afresh) once more than half the items are stale, or when the receiver
// has none. The memo is shared read-only between generations.
//
// The derived session joins the receiver's lineage, and with it the
// later-round memo: each touched item's re-priced prototype gets a new
// identity, so every merge tree holding a touched item does too, and its
// stale verdicts are never looked up again, while every other tree keeps
// its identity and its verdicts. Once half of the lineage's 2^32
// identities are spent, the derived session starts a new lineage instead,
// with a fresh memo, new identities for all its prototypes and no
// round-one memo.
//
// exec follows the NewSolverOn contract: nil selects the new local shard; a
// distributed caller passes the executor wired to the patched worker spans.
// The frequent-itemset transaction lists are not carried over — they are
// per-consumer views that a delta invalidates row-wise, and they re-mine
// lazily on the next FreqItemset solve, keeping ApplyDelta free of any
// O(entries) work.
//
// The receiver is untouched and keeps serving its own snapshot, so in-flight
// solves race with nothing: ApplyDelta only reads state that is immutable
// after NewSolver.
func (s *Solver) ApplyDelta(cells []wtp.Cell, exec StripeExecutor) (*Solver, error) {
	nw, err := s.w.WithDelta(cells)
	if err != nil {
		return nil, err
	}
	nsh, err := s.sh.ApplyDelta(nw, cells)
	if err != nil {
		return nil, err
	}
	ns := &Solver{
		w:      nw,
		sh:     nsh,
		exec:   exec,
		params: s.params,
		pr:     s.pr,
		k:      s.k,
		lin:    s.lin,
	}
	if ns.exec == nil {
		ns.exec = localExec{nsh}
	}
	renew := s.lin.spent()
	if renew {
		ns.lin = newLineage(s.params)
	}
	touched := make(map[int]bool, len(cells))
	for _, c := range cells {
		touched[c.Item] = true
	}
	ns.protos = make([]*node, len(s.protos))
	copy(ns.protos, s.protos)
	e := ns.newEngine()
	defer e.release()
	for i := range touched {
		ns.protos[i] = e.buildSingleton(e.ctx, i)
	}
	if renew {
		// No identity carries over into the new lineage: every inherited
		// prototype gets a new one, and the first solve builds round one.
		for i, p := range ns.protos {
			if !touched[i] {
				c := *p
				c.id = ns.lin.newIDs(1)
				ns.protos[i] = &c
			}
		}
		return ns, nil
	}
	ns.round1.Store(s.round1.Load().derive(cells, len(ns.protos)))
	return ns, nil
}
