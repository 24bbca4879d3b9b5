package server

import (
	"container/list"
	"sync"

	"bundling"
)

// resultCache is an LRU-bounded cache of solved/evaluated configurations.
// Keys embed the corpus ID, its registry version and the matrix snapshot
// version (see session.cacheKey), so a re-uploaded or patched corpus can
// never be served a predecessor's results: the new version simply misses.
// A session superseded by a re-upload or PATCH, or deleted, has its entries
// dropped at once (Server.retireSession) instead of left to age out of the
// LRU tail, where they would crowd out live results. An LRU-evicted
// session keeps its entries: a lazy reload restores the same snapshot under
// the same keys.
//
// Values are *bundling.Configuration shared by every hit; they are treated
// as immutable by all readers.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key  string
	snap snapshot // the snapshot the key is scoped to
	cfg  *bundling.Configuration
}

// newResultCache returns a cache holding at most max entries; max <= 0
// disables caching (every get misses, every put is dropped).
func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached configuration for key, refreshing its recency.
func (c *resultCache) get(key string) (*bundling.Configuration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).cfg, true
}

// put inserts or refreshes sess's result under key (from sess.cacheKey),
// evicting the least-recently-used entry when the cache is full. It is a
// no-op once sess is retired: the check runs under the cache lock, so a
// solve still running on a superseded session cannot re-insert a key drop
// has removed.
func (c *resultCache) put(sess *session, key string, cfg *bundling.Configuration) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sess.retired {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).cfg = cfg
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, snap: sess.snapshot(), cfg: cfg})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
	}
}

// drop retires sess and removes every entry of its snapshot.
func (c *resultCache) drop(sess *session) {
	snap := sess.snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	sess.retired = true
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.snap == snap {
			c.ll.Remove(el)
			delete(c.items, e.key)
		}
		el = next
	}
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
