// Package cluster implements distributed stripe-sharded solving: a
// coordinator/worker subsystem that partitions a corpus's consumer stripes
// across remote workers and evaluates bundles by scatter/gather.
//
// The unit of distribution is the stripe span (wtp.SpanDoc): a contiguous
// range of the corpus shard's stripes, shipped to the bundleworker daemon
// that owns it as a binary codec envelope (internal/codec; roughly a third
// of the JSON bytes). Workers serve per-span bundle vectors and pricing
// aggregates (max + histogram) with the exact per-stripe kernels the
// single-machine shard uses, so per-span results concatenated (or summed)
// in stripe order reproduce the local Solver's arithmetic. Solves form a
// candidate merge's vector, the union of two cached vectors, in process. Vector and aggregate queries carry a whole lineup's
// bundles, so an evaluate costs a fixed number of scatter rounds: two for a
// pure lineup (maxima, then histograms) and one for a mixed one (vectors).
//
// The coordinator side is cluster.Solver, which implements the same
// Solve/Evaluate/Stats surface as bundling.Solver so the bundled daemon can
// serve a worker fleet transparently (the -workers flag). Every RPC carries
// the corpus snapshot version: a worker holding no span or a stale span
// answers ErrSpan, and the coordinator re-feeds it and retries — a stale
// worker is re-fed, never silently wrong. A span whose primary stays
// unreachable is retried on a replica worker and, failing that, computed
// from the coordinator's local span store, so results degrade in locality,
// never in correctness.
//
// Coordinator restarts need no protocol support: a session restored from
// the bundled daemon's corpus store behaves exactly like a fresh upload —
// it draws a new session nonce and feeds its spans eagerly (or lazily via
// the re-feed path), so spans a worker kept from before the restart can
// never satisfy the restored session's version checks.
package cluster

import (
	"errors"

	"bundling/internal/wtp"
)

// ErrSpan marks a span-level rejection that a re-feed repairs: the worker
// holds no span for the corpus, or a span of a different snapshot version.
var ErrSpan = errors.New("cluster: span missing or stale")

// AssignRequest ships a stripe span to a worker, registering (or replacing)
// it under the corpus key.
type AssignRequest struct {
	Corpus string       `json:"corpus"`
	Span   *wtp.SpanDoc `json:"span"`
}

// DeltaRequest rebases a worker's span replica instead of re-shipping it:
// the worker resolves the span registered under BaseCorpus, checks it holds
// snapshot FromVersion (missing or stale → ErrSpan, and the coordinator
// falls back to a full span feed), applies the span-scoped cells, and
// registers the patched replica under the request's corpus key stamped
// ToVersion. An empty cell list is a cheap alias feed: the new session key
// adopts the untouched base span without re-shipping its postings.
type DeltaRequest struct {
	BaseCorpus  string     `json:"base_corpus"`
	FromVersion uint64     `json:"from_version"`
	ToVersion   uint64     `json:"to_version"`
	Cells       []wtp.Cell `json:"cells,omitempty"`
}

// Bundle is one bundle of a batched span query: its item set and the θ its
// Eq. 1 WTP is computed under.
type Bundle struct {
	Items []int   `json:"items"`
	Theta float64 `json:"theta"`
}

// VectorRequest asks a worker for its span's share of each bundle's
// interested-consumer vector (Eq. 1).
type VectorRequest struct {
	Version uint64   `json:"version"` // corpus snapshot version the caller serves
	Bundles []Bundle `json:"bundles"`
}

// VectorResponse carries per-span consumer vectors: ascending consumer ids
// within the span and the aligned WTP values. A vector reply concatenates
// its bundles' vectors, and Ends[k] is where bundle k's ends; a union reply
// is one vector and carries no Ends.
type VectorResponse struct {
	IDs  []int     `json:"ids"`
	Vals []float64 `json:"vals"`
	Ends []int     `json:"ends,omitempty"`
}

// UnionRequest asks a worker to merge the span-restricted slices of two
// cached consumer vectors. No coordinator sends it: solves form every union
// in process.
type UnionRequest struct {
	Version uint64    `json:"version"`
	AIDs    []int     `json:"a_ids"`
	AVals   []float64 `json:"a_vals"`
	SA      float64   `json:"sa"`
	BIDs    []int     `json:"b_ids"`
	BVals   []float64 `json:"b_vals"`
	SB      float64   `json:"sb"`
}

// StatsRequest asks for a span's pricing pre-aggregates: each bundle's
// maximum WTP (phase one of the two-round aggregate pricing).
type StatsRequest struct {
	Version uint64   `json:"version"`
	Bundles []Bundle `json:"bundles"`
}

// StatsResponse is a span's pricing pre-aggregates, one per bundle; each
// reduces by max.
type StatsResponse struct {
	Max []float64 `json:"max"` // maximum Eq. 1 bundle WTP in the span
}

// HistRequest asks for a span's pricing histograms, each bundle's against
// its global maximum WTP (phase two; see pricing.Histogram).
// len(Bundles)·(Levels+1) is capped at pricing.MaxHistogramCells.
type HistRequest struct {
	Version uint64    `json:"version"`
	Bundles []Bundle  `json:"bundles"`
	MaxW    []float64 `json:"max_w"`  // each bundle's global maximum WTP
	Alpha   float64   `json:"alpha"`  // adoption bias α of the pricing model
	Levels  int       `json:"levels"` // price levels T
}

// HistResponse carries a span's pricing histogram partials, bundle-major:
// bundle k's Levels+1 entries start at k·(Levels+1). Both arrays reduce by
// element-wise addition.
type HistResponse struct {
	Counts []float64 `json:"counts"`
	Sums   []float64 `json:"sums"`
}

// SpanInfo describes one span a worker holds, for health reporting.
// Requests counts the reduction RPCs served from the span since it was
// assigned — the per-span load signal behind the fleet view (and the
// observed-load input hot-span replication will consume).
type SpanInfo struct {
	Corpus      string `json:"corpus"`
	Version     uint64 `json:"version"`
	StartStripe int    `json:"start_stripe"`
	EndStripe   int    `json:"end_stripe"`
	LoConsumer  int    `json:"lo_consumer"`
	HiConsumer  int    `json:"hi_consumer"`
	Items       int    `json:"items"`
	Entries     int    `json:"entries"`
	Requests    int64  `json:"requests,omitempty"`
}

// WorkerHealth is the bundleworker /healthz payload: liveness plus every
// assigned span with its corpus version, so operators (and the coordinator's
// readiness gate) can see exactly which shard of the corpus a worker serves.
// Ops carries the worker's per-operation request totals and
// StaleRejections its span-version rejections, so one probe returns the
// worker's whole load picture — what the coordinator's /debug/fleet joins.
type WorkerHealth struct {
	Status          string           `json:"status"`
	UptimeSeconds   float64          `json:"uptime_seconds"`
	Spans           []SpanInfo       `json:"spans"`
	Ops             map[string]int64 `json:"ops,omitempty"`
	StaleRejections int64            `json:"stale_rejections,omitempty"`
}

// ErrorResponse carries any non-2xx worker outcome.
type ErrorResponse struct {
	Error string `json:"error"`
}
