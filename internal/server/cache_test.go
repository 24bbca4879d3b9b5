package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"bundling"
)

func cfgWithRevenue(rev float64) *bundling.Configuration {
	return &bundling.Configuration{Revenue: rev}
}

// anon is the session the LRU tests cache under; its scope is irrelevant
// to recency and eviction.
var anon = &session{}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(3)
	for i := 0; i < 4; i++ {
		c.put(anon, fmt.Sprintf("k%d", i), cfgWithRevenue(float64(i)))
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}
	if _, ok := c.get("k0"); ok {
		t.Error("k0 should have been evicted as least recently used")
	}
	for i := 1; i < 4; i++ {
		cfg, ok := c.get(fmt.Sprintf("k%d", i))
		if !ok || cfg.Revenue != float64(i) {
			t.Errorf("k%d: ok=%v cfg=%+v", i, ok, cfg)
		}
	}
	// Touch k1, insert k4: k2 is now the LRU victim.
	c.get("k1")
	c.put(anon, "k4", cfgWithRevenue(4))
	if _, ok := c.get("k2"); ok {
		t.Error("k2 should have been evicted after k1 was refreshed")
	}
	if _, ok := c.get("k1"); !ok {
		t.Error("k1 should have survived")
	}
	// Re-putting an existing key refreshes in place without growing.
	c.put(anon, "k3", cfgWithRevenue(33))
	if c.len() != 3 {
		t.Errorf("len = %d after refresh, want 3", c.len())
	}
	if cfg, _ := c.get("k3"); cfg == nil || cfg.Revenue != 33 {
		t.Errorf("k3 not refreshed: %+v", cfg)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.put(anon, "k", cfgWithRevenue(1))
	if _, ok := c.get("k"); ok {
		t.Error("disabled cache should never hit")
	}
	if c.len() != 0 {
		t.Errorf("len = %d, want 0", c.len())
	}
}

// TestResultCacheDropRetires drops one snapshot's entries: exactly that
// scope goes (not a newer generation, not an ID that merely shares its key
// prefix), and a put for the retired session afterwards — a solve that was
// still running when its session was superseded — inserts nothing.
func TestResultCacheDropRetires(t *testing.T) {
	c := newResultCache(8)
	old := &session{id: "a", version: 1}
	cur := &session{id: "a", version: 2}
	lookalike := &session{id: "a@1.0|x", version: 1}
	for _, sess := range []*session{old, cur, lookalike} {
		c.put(sess, sess.cacheKey("solve", "greedy"), cfgWithRevenue(1))
	}
	c.put(old, old.cacheKey("evaluate", "[[0 1]]"), cfgWithRevenue(2))
	c.drop(old)
	if c.len() != 2 {
		t.Fatalf("len = %d after drop, want 2", c.len())
	}
	for _, sess := range []*session{cur, lookalike} {
		if _, ok := c.get(sess.cacheKey("solve", "greedy")); !ok {
			t.Errorf("%s@%d lost its entry", sess.id, sess.version)
		}
	}
	c.put(old, old.cacheKey("solve", "matching"), cfgWithRevenue(3))
	if _, ok := c.get(old.cacheKey("solve", "matching")); ok || c.len() != 2 {
		t.Errorf("a put for a retired session was cached (len %d)", c.len())
	}
}

// cacheEntries reads bundled_result_cache_entries off /metrics.
func cacheEntries(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	_, body := postGet(t, ts, "/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "bundled_result_cache_entries "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatalf("bundled_result_cache_entries %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatal("no bundled_result_cache_entries on /metrics")
	return 0
}

// TestSupersededResultsDropped solves a corpus at one generation and then
// supersedes that generation by PATCH, by re-upload and by DELETE: each
// time the old generation's entries must leave the result cache at once,
// while another corpus's entries stay. An LRU-evicted corpus keeps its
// entries, and its lazy reload serves them.
func TestSupersededResultsDropped(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st, MaxSessions: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	doc := bundling.NewMatrixDoc(testMatrix(t, 40, 8, 5))
	uploadDoc(t, ts, "keep", doc, OptionsDoc{})
	solveRevenue(t, ts, "keep", "greedy")
	solveTwice := func(step string) {
		t.Helper()
		uploadDoc(t, ts, "c", doc, OptionsDoc{})
		solveRevenue(t, ts, "c", "greedy")
		solveRevenue(t, ts, "c", "matching")
		if n := cacheEntries(t, ts); n != 3 {
			t.Fatalf("before %s: %d cache entries, want 3", step, n)
		}
	}
	solveTwice("PATCH")
	if resp, body := patchBody(t, ts, "c", "application/json", []byte(`{"cells":[{"consumer":0,"item":0,"value":7}]}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d: %s", resp.StatusCode, body)
	}
	if n := cacheEntries(t, ts); n != 1 {
		t.Errorf("after PATCH: %d cache entries, want 1", n)
	}
	solveTwice("re-upload")
	uploadDoc(t, ts, "c", doc, OptionsDoc{})
	if n := cacheEntries(t, ts); n != 1 {
		t.Errorf("after re-upload: %d cache entries, want 1", n)
	}
	solveTwice("DELETE")
	if code, body := authRequest(t, ts, http.MethodDelete, "/v1/corpora/c", "", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", code, body)
	}
	if n := cacheEntries(t, ts); n != 1 {
		t.Errorf("after DELETE: %d cache entries, want 1", n)
	}
	// Two more corpora evict "keep" from the two-session registry; its
	// entry stays, and the reload hits it.
	uploadDoc(t, ts, "x", doc, OptionsDoc{})
	uploadDoc(t, ts, "y", doc, OptionsDoc{})
	if n := cacheEntries(t, ts); n != 1 {
		t.Errorf("after eviction: %d cache entries, want 1", n)
	}
	if _, cached := solveRevenue(t, ts, "keep", "greedy"); !cached {
		t.Error("reloaded corpus missed its cached result")
	}
}
