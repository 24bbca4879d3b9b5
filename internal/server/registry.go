package server

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bundling"
)

// errReplacedMeanwhile reports a conditional replace whose expected
// predecessor is no longer installed — a concurrent upload or mutation won;
// the mutation handler maps it to 409.
var errReplacedMeanwhile = errors.New("session concurrently replaced")

// session is one registry entry: a named corpus at one upload generation,
// with its owner, options and listing stats and, while resident, the
// indexed engine that serves it. Sessions are immutable after creation — a
// re-upload, PATCH, eviction or reload installs a new session under the
// same ID — so any number of handler goroutines may share one.
type session struct {
	id        string
	version   int    // registry upload generation for this ID
	tenant    string // owning tenant ("" = public / uploaded with auth off)
	solver    Solver // nil = engine-less: LRU-evicted, or untouched since boot
	opts      bundling.Options
	stats     bundling.SolverStats
	createdAt time.Time

	// persisted marks a generation with a record in the store (or one being
	// written): eviction keeps the entry, engine-less, for a lazy reload. A
	// memory-only session is dropped instead, and the persisted entry it
	// replaced, if any (shadow), is listed and served again.
	persisted bool
	shadow    *session
	// durable, when set, is closed once this generation's persist has
	// resolved, either way. A reload or a PATCH of the generation waits on
	// it, so neither reads or chains onto a record that is not yet written.
	durable chan struct{}

	elem    *list.Element // registry LRU slot while resident, guarded by the registry mutex
	retired bool          // entries dropped from the result cache, guarded by its mutex
}

// snapshot is the triple a cache key embeds; resultCache.drop matches it
// exactly, whatever characters the corpus ID holds.
type snapshot struct {
	id      string
	gen     int
	version uint64
}

func (s *session) snapshot() snapshot {
	return snapshot{id: s.id, gen: s.version, version: s.stats.Version}
}

// cacheKey builds a result-cache key scoped to this exact corpus snapshot:
// the session's ID, its upload generation and the matrix version the solver
// indexed. A re-uploaded corpus changes the generation (and in practice the
// matrix version), so stale results can never be served across versions.
func (s *session) cacheKey(op, detail string) string {
	return fmt.Sprintf("%s@%d.%d|%s|%s", s.id, s.version, s.stats.Version, op, detail)
}

// info snapshots the session for listings.
func (s *session) info() CorpusInfo {
	return CorpusInfo{
		ID:        s.id,
		Version:   s.version,
		Tenant:    s.tenant,
		Consumers: s.stats.Consumers,
		Items:     s.stats.Items,
		Entries:   s.stats.Entries,
		Stripes:   s.stats.Stripes,
		TotalWTP:  s.stats.TotalWTP,
		Options:   NewOptionsDoc(s.opts),
		CreatedAt: s.createdAt,
	}
}

// stub copies the session's metadata into an engine-less entry.
func (s *session) stub() *session {
	return &session{
		id:        s.id,
		version:   s.version,
		tenant:    s.tenant,
		opts:      s.opts,
		stats:     s.stats,
		createdAt: s.createdAt,
		persisted: true,
		durable:   s.durable,
	}
}

// waitDurable blocks until the session's generation has finished persisting.
func (s *session) waitDurable() {
	if s.durable != nil {
		<-s.durable
	}
}

// registry is the daemon's corpus catalog: one entry per live corpus, keyed
// by ID, which alone answers which corpora exist, who owns each, at what
// generation and with how many entries. An entry holds its engine while
// resident; the resident entries are bounded by an LRU policy, and evicting
// a persisted corpus leaves its entry engine-less until a request reloads
// it. Upload generations survive eviction and deletes (versions map), so an
// ID that is re-created continues its version sequence and can never
// collide with cached results of an earlier life.
type registry struct {
	authOn bool // enforce corpus ownership on installs (auth is enabled)

	mu       sync.Mutex
	max      int
	sessions map[string]*session
	lru      *list.List     // resident entries, front = most recently used
	versions map[string]int // last assigned version per ID, survives eviction
	seq      int            // server-assigned ID counter
}

func newRegistry(max int) *registry {
	if max < 1 {
		max = 1
	}
	return &registry{
		max:      max,
		sessions: make(map[string]*session),
		lru:      list.New(),
		versions: make(map[string]int),
	}
}

// nextID returns a fresh server-assigned corpus ID.
func (r *registry) nextID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		r.seq++
		id := fmt.Sprintf("corpus-%d", r.seq)
		if _, taken := r.sessions[id]; !taken {
			return id
		}
	}
}

// quotaError reports which tenant quota an admission would exceed; the
// handler maps it to 429 and the matching rejection counter.
type quotaError struct {
	kind string // "corpora" or "entries"
	msg  string
}

func (e *quotaError) Error() string { return e.msg }

// ownerError reports an install under an ID another tenant owns; the
// handler maps it to 403.
type ownerError struct{ id string }

func (e *ownerError) Error() string {
	return fmt.Sprintf("corpus %q belongs to another tenant", e.id)
}

// ownerCheckLocked rejects an install under an ID another tenant owns. An
// evicted corpus keeps its entry, so eviction never opens a takeover
// window. Callers hold r.mu.
func (r *registry) ownerCheckLocked(tenant, id string) error {
	if !r.authOn || id == "" {
		return nil
	}
	if sess, ok := r.sessions[id]; ok && sess.tenant != "" && sess.tenant != tenant {
		return &ownerError{id: id}
	}
	return nil
}

// quotaCheckLocked verifies that tenant may install a corpus of the given
// size under id. Holdings are every entry the tenant owns, resident or not.
// Replacing a corpus the tenant already owns is always within the
// corpus-count quota (and frees the predecessor's entries); taking over a
// public corpus is not — it grows the tenant's holdings. Callers hold r.mu.
func (r *registry) quotaCheckLocked(tenant, id string, entries int, q Quotas) error {
	if q.MaxCorpora <= 0 && q.MaxEntries <= 0 {
		return nil
	}
	existing, exists := r.sessions[id]
	ownReplace := exists && existing.tenant == tenant
	owned, used := 0, 0
	for _, sess := range r.sessions {
		if sess.tenant == tenant {
			owned++
			used += sess.stats.Entries
		}
	}
	if q.MaxCorpora > 0 && !ownReplace && owned >= q.MaxCorpora {
		return &quotaError{"corpora", fmt.Sprintf("corpus quota exceeded (%d corpora)", q.MaxCorpora)}
	}
	if q.MaxEntries > 0 {
		if ownReplace {
			used -= existing.stats.Entries
		}
		if used+entries > q.MaxEntries {
			return &quotaError{"entries", fmt.Sprintf("entry quota exceeded (%d of %d entries in use, corpus adds %d)",
				used, q.MaxEntries, entries)}
		}
	}
	return nil
}

// admitLocked is the full admission gate — ownership, then quotas. Callers
// hold r.mu.
func (r *registry) admitLocked(tenant, id string, entries int, q Quotas) error {
	if err := r.ownerCheckLocked(tenant, id); err != nil {
		return err
	}
	return r.quotaCheckLocked(tenant, id, entries, q)
}

// admitCheck is the advisory pre-index admission gate: the same ownership
// and quota checks put enforces atomically, run before the expensive
// engine build so a doomed upload is rejected cheaply.
func (r *registry) admitCheck(tenant, id string, entries int, q Quotas) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLocked(tenant, id, entries, q)
}

// put installs sess at the next generation of its ID's sequence. With
// enforce set the tenant ownership and quota checks run atomically with the
// install, so concurrent uploads cannot slip past the gate together. A
// memory-only session that replaces a persisted corpus shadows it: the
// corpus comes back when the session is evicted.
func (r *registry) put(sess *session, q Quotas, enforce bool) (replaced *session, evicted []*session, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if enforce {
		if err := r.admitLocked(sess.tenant, sess.id, sess.stats.Entries, q); err != nil {
			return nil, nil, err
		}
	}
	r.versions[sess.id]++
	sess.version = r.versions[sess.id]
	if old, ok := r.sessions[sess.id]; ok {
		replaced = old
		if !sess.persisted {
			sess.shadow = old.shadow
			if old.persisted {
				sess.shadow = old.stub()
			}
		}
	}
	r.installLocked(sess)
	return replaced, r.evictLocked(), nil
}

// putReplacing installs sess at the next generation only if old is still
// the installed session for the ID — the delta-mutation path, whose new
// session was derived from old and must not stomp a session a concurrent
// upload or mutation installed from a different base. The entry quota is
// re-checked atomically (a delta can grow the corpus); ownership needs no
// check, the new session inherits old's tenant. sess takes old's LRU slot,
// so nothing is evicted. A memory-only sess inherits the persisted corpus
// old shadows, if any, so evicting it still gives way to that corpus.
func (r *registry) putReplacing(sess, old *session, q Quotas) (replaced *session, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[sess.id] != old {
		return nil, errReplacedMeanwhile
	}
	if err := r.quotaCheckLocked(sess.tenant, sess.id, sess.stats.Entries, q); err != nil {
		return nil, err
	}
	if !sess.persisted {
		sess.shadow = old.shadow
	}
	r.versions[sess.id]++
	sess.version = r.versions[sess.id]
	r.installLocked(sess)
	return old, nil
}

// resume installs sess, an engine reloaded for the engine-less entry stub,
// while the entry is still at stub's generation. It returns the session to
// serve: sess, or the resident one a concurrent reload installed first — or
// nil when the entry moved to another generation or was deleted meanwhile.
func (r *registry) resume(stub, sess *session) (cur *session, evicted []*session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.sessions[stub.id]
	if !ok || cur.version != stub.version {
		return nil, nil
	}
	if cur.solver != nil {
		return cur, nil
	}
	r.installLocked(sess)
	return sess, r.evictLocked()
}

// swapAt replaces the entry for id with entry — nil removes it — only while
// the entry is at generation gen, resident or not: a DELETE removes exactly
// the generation it authorized, and a failed persist rolls back only its
// own generation, never a newer one a concurrent upload installed. Returns
// the displaced entry, or nil when the entry had moved on.
func (r *registry) swapAt(id string, gen int, entry *session) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.sessions[id]
	if !ok || cur.version != gen {
		return nil
	}
	if cur.solver != nil {
		r.lru.Remove(cur.elem)
	}
	if entry == nil {
		delete(r.sessions, id)
	} else {
		r.sessions[id] = entry
	}
	return cur
}

// restore installs the engine-less entries of a restarted store's live
// corpora, and raises the per-ID generation counters to the store's —
// deleted IDs included — so the first post-restart upload of any known ID
// continues its generation sequence instead of reusing one.
func (r *registry) restore(stubs []*session, gens map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, gen := range gens {
		if gen > r.versions[id] {
			r.versions[id] = gen
		}
	}
	for _, stub := range stubs {
		if _, taken := r.sessions[stub.id]; !taken {
			r.sessions[stub.id] = stub
		}
	}
}

// installLocked makes sess the ID's resident entry, releasing the LRU slot
// of a resident predecessor. Callers hold r.mu.
func (r *registry) installLocked(sess *session) {
	if old, ok := r.sessions[sess.id]; ok && old.solver != nil {
		r.lru.Remove(old.elem)
	}
	sess.elem = r.lru.PushFront(sess)
	r.sessions[sess.id] = sess
}

// evictLocked evicts least-recently-used engines until the resident count
// fits the bound. A persisted corpus stays listed as an engine-less entry;
// a memory-only one is dropped, giving way to the persisted corpus it
// shadowed, if any. Callers hold r.mu and release the evicted engines.
func (r *registry) evictLocked() (evicted []*session) {
	for r.lru.Len() > r.max {
		victim := r.lru.Remove(r.lru.Back()).(*session)
		evicted = append(evicted, victim)
		switch {
		case victim.persisted:
			r.sessions[victim.id] = victim.stub()
		case victim.shadow != nil:
			r.sessions[victim.id] = victim.shadow
		default:
			delete(r.sessions, victim.id)
		}
	}
	return evicted
}

// peek returns the entry for id without refreshing its LRU recency — for
// pre-flight checks (ownership, quotas) that must not promote a corpus
// the caller may not even be allowed to touch.
func (r *registry) peek(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.sessions[id]
	return sess, ok
}

// touch refreshes sess's LRU recency if it is still the installed resident
// session for its ID. Handlers look sessions up with peek and promote only
// after authorization succeeds, so a rejected request cannot perturb
// another tenant's eviction order.
func (r *registry) touch(sess *session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[sess.id] == sess {
		r.lru.MoveToFront(sess.elem)
	}
}

// list snapshots every entry's info, sorted by ID.
func (r *registry) list() []CorpusInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CorpusInfo, 0, len(r.sessions))
	for _, sess := range r.sessions {
		out = append(out, sess.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// len returns the resident session count.
func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// corpora returns the entry count: every corpus a request could address.
func (r *registry) corpora() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// clear drops and returns every entry (graceful shutdown); the caller
// releases their engines.
func (r *registry) clear() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*session, 0, len(r.sessions))
	for _, sess := range r.sessions {
		out = append(out, sess)
	}
	r.sessions = make(map[string]*session)
	r.lru.Init()
	return out
}
