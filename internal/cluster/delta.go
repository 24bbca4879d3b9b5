package cluster

import (
	"context"

	"bundling"
	"bundling/internal/server"
)

// ApplyDelta derives a new coordinator session with the delta applied,
// leaving the receiver serving its own snapshot untouched. The local side is
// incremental end to end (bundling.Solver.ApplyDeltaOn: copy-on-write matrix,
// touched-stripe shard rebuild, touched-item singleton repair). On the fleet
// side the new session takes a fresh corpus key and snapshot nonce — old
// in-flight solves keep hitting the old keys, and the old session's Close
// still drops exactly its own spans — and each span is fed as a span-scoped
// delta against the worker's resident base span: the worker checks the base
// nonce like any other RPC and rebases the replica in place, so a one-cell
// mutation ships a few dozen bytes per span instead of the whole postings.
// Untouched spans ship an empty-cell alias delta. Any delta failure — a
// transport without delta support, a worker that lost or evicted the base
// span, a stale base nonce — falls back to a full span feed of the patched
// doc, so the fleet converges on the new snapshot regardless.
func (s *Solver) ApplyDelta(cells []bundling.DeltaCell) (*Solver, error) {
	x := s.exec
	nx := &executor{corpus: uniqueCorpus(), version: snapshotNonce(), workers: x.workers, budget: x.budget}
	inner, err := s.inner.ApplyDeltaOn(cells, nx)
	if err != nil {
		return nil, err
	}
	nx.partition(inner)
	baseByStart := make(map[int]*spanSlot, len(x.spans))
	for _, sl := range x.spans {
		baseByStart[sl.doc.Start] = sl
	}
	// A delta rebases on the base session's resident spans, so let the base's
	// eager feeds settle before sending any — racing one would bounce off
	// ErrSpan and waste a full feed. By mutation time these are normally long
	// done; a sick worker bounds the wait at the base's feed timeout.
	x.feeding.Wait()
	// Feed each span, best effort like NewSolver's eager feed: delta-rebase
	// against the worker's resident base span where possible, full feed
	// otherwise. The lazy re-feed path and the replica/local fallbacks cover
	// any span this leaves unfed. Each feed also holds the base session's
	// feeding group, so a base Close right after ApplyDelta cannot drop the
	// base spans out from under an in-flight rebase.
	lo := 0
	for _, sl := range nx.spans {
		base := baseByStart[sl.doc.Start]
		var cut []bundling.DeltaCell
		for _, c := range cells {
			if c.Consumer >= lo && c.Consumer < sl.hi {
				cut = append(cut, c)
			}
		}
		lo = sl.hi
		x.feeding.Add(1)
		nx.goFeed(func(ctx context.Context) {
			defer x.feeding.Done()
			if base != nil && base.primary == sl.primary {
				if dt, ok := nx.workers[sl.primary].(DeltaTransport); ok {
					req := DeltaRequest{
						BaseCorpus:  base.key,
						FromVersion: x.version,
						ToVersion:   nx.version,
						Cells:       cut,
					}
					if err := dt.Delta(ctx, sl.key, req); err == nil {
						nx.deltaFeeds.Add(1)
						return
					}
				}
			}
			nx.deltaFallbacks.Add(1)
			_ = nx.assign(ctx, sl.primary, sl)
		})
	}
	return &Solver{inner: inner, exec: nx, opts: s.opts}, nil
}

// ApplyDeltaSolver implements the serving layer's optional mutation
// extension (server.DeltaSolver) on top of ApplyDelta.
func (s *Solver) ApplyDeltaSolver(cells []bundling.DeltaCell) (server.Solver, error) {
	return s.ApplyDelta(cells)
}
