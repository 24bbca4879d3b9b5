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

// errAlreadyInstalled reports an if-absent install that found a session
// under the ID — the caller serves that session instead.
var errAlreadyInstalled = errors.New("session already installed")

// errReplacedMeanwhile reports a conditional replace whose expected
// predecessor is no longer installed — a concurrent upload or mutation won;
// the mutation handler maps it to 409.
var errReplacedMeanwhile = errors.New("session concurrently replaced")

// session is one named, long-lived corpus session: an indexed
// bundling.Solver plus its cache-key identity. Sessions are immutable after
// creation — a re-upload builds a new session under the same ID — so any
// number of handler goroutines may share one.
type session struct {
	id        string
	version   int    // registry upload generation for this ID
	tenant    string // owning tenant ("" = public / uploaded with auth off)
	solver    Solver // local bundling.Solver or the cluster coordinator
	opts      bundling.Options
	stats     bundling.SolverStats
	createdAt time.Time

	elem    *list.Element // registry LRU slot, guarded by the registry mutex
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

// registry holds the live sessions keyed by corpus ID, bounded by an LRU
// eviction policy: creating a session beyond the cap evicts the
// least-recently-used one. Upload generations survive eviction (versions
// map), so an ID that is evicted and later re-created continues its version
// sequence and can never collide with cached results of an earlier life.
type registry struct {
	authOn bool   // enforce corpus ownership on installs (auth is enabled)
	store  *Store // durable ownership + quota source for evicted sessions (nil = memory only)

	mu       sync.Mutex
	max      int
	sessions map[string]*session
	lru      *list.List     // front = most recently used; values are *session
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

// ownerCheckLocked rejects an install under an ID another tenant owns. The
// live session is authoritative; when the session has been LRU-evicted the
// persisted record still carries ownership, so eviction never opens a
// takeover window. Callers hold r.mu.
func (r *registry) ownerCheckLocked(tenant, id string) error {
	if !r.authOn || id == "" {
		return nil
	}
	owner, known := "", false
	if sess, ok := r.sessions[id]; ok {
		owner, known = sess.tenant, true
	} else if r.store != nil {
		owner, _, _, known = r.store.LiveInfo(id)
	}
	if known && owner != "" && owner != tenant {
		return &ownerError{id: id}
	}
	return nil
}

// quotaCheckLocked verifies that tenant may install a corpus of the given
// size under id. Holdings are the union of live sessions and the store's
// persisted corpora, deduplicated by ID: an LRU-evicted corpus keeps its
// record (and resurrects on restart), so it keeps counting. Replacing a
// corpus the tenant already owns is always within the corpus-count quota
// (and frees the predecessor's entries); taking over a public corpus is not
// — it grows the tenant's holdings. Callers hold r.mu.
func (r *registry) quotaCheckLocked(tenant, id string, entries int, q Quotas) error {
	if q.MaxCorpora <= 0 && q.MaxEntries <= 0 {
		return nil
	}
	existingTenant, existingEntries, exists := "", 0, false
	if sess, ok := r.sessions[id]; ok {
		existingTenant, existingEntries, exists = sess.tenant, sess.stats.Entries, true
	} else if r.store != nil {
		if t, _, n, ok := r.store.LiveInfo(id); ok {
			existingTenant, existingEntries, exists = t, n, true
		}
	}
	ownReplace := exists && existingTenant == tenant
	owned, used := 0, 0
	counted := make(map[string]bool, len(r.sessions))
	for _, sess := range r.sessions {
		counted[sess.id] = true
		if sess.tenant == tenant {
			owned++
			used += sess.stats.Entries
		}
	}
	if r.store != nil {
		r.store.forEachLive(func(cid, ct string, n int) {
			if !counted[cid] && ct == tenant {
				owned++
				used += n
			}
		})
	}
	if q.MaxCorpora > 0 && !ownReplace && owned >= q.MaxCorpora {
		return &quotaError{"corpora", fmt.Sprintf("corpus quota exceeded (%d corpora)", q.MaxCorpora)}
	}
	if q.MaxEntries > 0 {
		if ownReplace {
			used -= existingEntries
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
// and quota checks putAt enforces atomically, run before the expensive
// engine build so a doomed upload is rejected cheaply.
func (r *registry) admitCheck(tenant, id string, entries int, q Quotas) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLocked(tenant, id, entries, q)
}

// putAt installs a session. Version 0 assigns the next generation of the
// ID's sequence (the upload path); a positive version installs at exactly
// that generation (the restart-restore path, replaying a generation the
// store already assigned) while keeping the ID's counter monotonic. With
// enforce set the tenant ownership and quota checks run atomically with the
// install, so concurrent uploads cannot slip past the gate together and no
// eviction or race during the index build can open a takeover window. With
// ifAbsent set the install fails with errAlreadyInstalled when any session
// holds the ID — the paths replaying disk state (lazy reload, persist
// recovery) must never stomp a session a concurrent upload installed.
func (r *registry) putAt(sess *session, version int, q Quotas, enforce, ifAbsent bool) (replaced *session, evicted []*session, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ifAbsent {
		if _, ok := r.sessions[sess.id]; ok {
			return nil, nil, errAlreadyInstalled
		}
	}
	if enforce {
		if err := r.admitLocked(sess.tenant, sess.id, sess.stats.Entries, q); err != nil {
			return nil, nil, err
		}
	}
	if version <= 0 {
		r.versions[sess.id]++
		version = r.versions[sess.id]
	} else if version > r.versions[sess.id] {
		r.versions[sess.id] = version
	}
	sess.version = version
	if old, ok := r.sessions[sess.id]; ok {
		r.lru.Remove(old.elem)
		replaced = old
	}
	sess.elem = r.lru.PushFront(sess)
	r.sessions[sess.id] = sess
	for len(r.sessions) > r.max {
		tail := r.lru.Back()
		victim := tail.Value.(*session)
		r.lru.Remove(tail)
		delete(r.sessions, victim.id)
		evicted = append(evicted, victim)
	}
	return replaced, evicted, nil
}

// putReplacing installs sess at the next generation only if old is still
// the installed session for the ID — the delta-mutation path, whose new
// session was derived from old and must not stomp a session a concurrent
// upload or mutation installed from a different base. The entry quota is
// re-checked atomically (a delta can grow the corpus); ownership needs no
// check, the new session inherits old's tenant.
func (r *registry) putReplacing(sess, old *session, q Quotas) (replaced *session, evicted []*session, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[sess.id] != old {
		return nil, nil, errReplacedMeanwhile
	}
	if err := r.quotaCheckLocked(sess.tenant, sess.id, sess.stats.Entries, q); err != nil {
		return nil, nil, err
	}
	r.versions[sess.id]++
	sess.version = r.versions[sess.id]
	r.lru.Remove(old.elem)
	sess.elem = r.lru.PushFront(sess)
	r.sessions[sess.id] = sess
	return old, nil, nil
}

// seedVersions raises the per-ID generation counters to at least the given
// values. The restart path seeds them from the store's manifest — including
// deleted IDs — so the first post-restart upload of any known ID continues
// its generation sequence instead of reusing one, which is what keeps
// result-cache keys and cluster span identities unambiguous across restarts.
func (r *registry) seedVersions(gens map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, gen := range gens {
		if gen > r.versions[id] {
			r.versions[id] = gen
		}
	}
}

// peek returns the session for id without refreshing its LRU recency —
// for pre-flight checks (ownership, quotas) that must not promote a corpus
// the caller may not even be allowed to touch.
func (r *registry) peek(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.sessions[id]
	return sess, ok
}

// touch refreshes sess's LRU recency if it is still the installed session
// for its ID. Handlers look sessions up with peek and promote only after
// authorization succeeds, so a rejected request cannot perturb another
// tenant's eviction order.
func (r *registry) touch(sess *session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[sess.id] == sess {
		r.lru.MoveToFront(sess.elem)
	}
}

// deleteIf removes sess only if it is still the installed session for its
// ID — the rollback path after a failed persist, which must not stomp a
// newer session a concurrent upload installed meanwhile. Returns sess if
// removed, nil otherwise; the caller releases its engine either way.
func (r *registry) deleteIf(sess *session) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[sess.id] != sess {
		return nil
	}
	r.lru.Remove(sess.elem)
	delete(r.sessions, sess.id)
	return sess
}

// list snapshots every live session's info, sorted by ID.
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

// len returns the live session count.
func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// clear drops and returns every session (graceful shutdown); the caller
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
