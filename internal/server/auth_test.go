package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bundling"
)

func TestParseAuthKeys(t *testing.T) {
	a, err := ParseAuthKeys("alice=sk-a, bob=sk-b ,alice=sk-a2")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Enabled() || a.Tenants() != 2 {
		t.Fatalf("tenants = %d, want 2", a.Tenants())
	}
	for key, want := range map[string]string{"sk-a": "alice", "sk-a2": "alice", "sk-b": "bob"} {
		if got, ok := a.Tenant(key); !ok || got != want {
			t.Errorf("Tenant(%q) = %q, %v", key, got, ok)
		}
	}
	if _, ok := a.Tenant("nope"); ok {
		t.Error("unknown key resolved")
	}
	for _, bad := range []string{"", "alice", "=sk", "alice=", "alice=k,bob=k"} {
		if _, err := ParseAuthKeys(bad); err == nil {
			t.Errorf("ParseAuthKeys(%q) accepted", bad)
		}
	}
	var nilAuth *Auth
	if nilAuth.Enabled() {
		t.Error("nil auth enabled")
	}
}

func TestLoadAuthKeysFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	content := "# serving keys\nalice=sk-a\n\n  bob = sk-b\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	a, err := LoadAuthKeysFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Tenant("sk-b"); got != "bob" {
		t.Errorf("Tenant(sk-b) = %q", got)
	}
	if _, err := LoadAuthKeysFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// authRequest issues one request with an optional bearer key.
func authRequest(t *testing.T, ts *httptest.Server, method, path, key, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(buf)
}

// tinyUpload renders an upload body for a 2x2 corpus.
func tinyUpload(id string, entries int) string {
	w := bundling.NewMatrix(entries, 2)
	for u := 0; u < entries; u++ {
		w.MustSet(u, u%2, float64(4+u))
	}
	doc, _ := json.Marshal(CreateCorpusRequest{ID: id, Matrix: bundling.NewMatrixDoc(w)})
	return string(doc)
}

func TestAuthAndOwnership(t *testing.T) {
	auth, err := ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Auth: auth})
	defer srv.Close()
	// A public session (preloaded with no owner) stays visible to everyone.
	if err := Preload(srv, "demo", testMatrix(t, 20, 6, 9), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unauthenticated and unknown-key requests: 401. Probes stay open.
	if code, _ := authRequest(t, ts, http.MethodGet, "/v1/corpora", "", ""); code != http.StatusUnauthorized {
		t.Fatalf("no key: %d", code)
	}
	if code, _ := authRequest(t, ts, http.MethodGet, "/v1/corpora", "sk-wrong", ""); code != http.StatusUnauthorized {
		t.Fatalf("bad key: %d", code)
	}
	if code, _ := authRequest(t, ts, http.MethodGet, "/healthz", "", ""); code != http.StatusOK {
		t.Fatalf("healthz gated: %d", code)
	}
	if code, _ := authRequest(t, ts, http.MethodGet, "/metrics", "", ""); code != http.StatusOK {
		t.Fatalf("metrics gated: %d", code)
	}

	// Alice uploads; Bob can neither read, solve, evaluate, delete nor
	// replace her corpus.
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("al", 6)); code != http.StatusCreated {
		t.Fatalf("alice upload: %d: %s", code, body)
	}
	for _, probe := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/corpora/al", ""},
		{http.MethodPost, "/v1/corpora/al/solve", `{"algorithm":"matching"}`},
		{http.MethodPost, "/v1/corpora/al/evaluate", `{"offers":[[0]]}`},
		{http.MethodDelete, "/v1/corpora/al", ""},
		{http.MethodPost, "/v1/corpora", tinyUpload("al", 6)},
	} {
		if code, body := authRequest(t, ts, probe.method, probe.path, "sk-b", probe.body); code != http.StatusForbidden {
			t.Errorf("bob %s %s: %d: %s", probe.method, probe.path, code, body)
		}
	}
	// Alice still can.
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora/al/solve", "sk-a", `{"algorithm":"matching"}`); code != http.StatusOK {
		t.Errorf("alice solve: %d: %s", code, body)
	}

	// Listings are scoped: bob sees the public demo corpus, not alice's.
	code, body := authRequest(t, ts, http.MethodGet, "/v1/corpora", "sk-b", "")
	if code != http.StatusOK {
		t.Fatalf("bob list: %d", code)
	}
	var list ListCorporaResponse
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Corpora) != 1 || list.Corpora[0].ID != "demo" {
		t.Errorf("bob sees %+v", list.Corpora)
	}
	// The public corpus solves for any tenant.
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora/demo/solve", "sk-b", `{"algorithm":"matching"}`); code != http.StatusOK {
		t.Errorf("bob demo solve: %d: %s", code, body)
	}

	// Auth failures surfaced in the metrics.
	_, metrics := authRequest(t, ts, http.MethodGet, "/metrics", "", "")
	if !strings.Contains(metrics, "bundled_auth_failures_total 2") {
		t.Errorf("auth failure counter missing:\n%s", grepMetric(metrics, "auth_failures"))
	}
}

func TestQuotas(t *testing.T) {
	auth, err := ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Auth: auth, Quotas: Quotas{MaxCorpora: 2, MaxEntries: 10}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Corpus-count quota: the third distinct corpus is rejected, replacing
	// an existing one is not.
	for _, id := range []string{"a1", "a2"} {
		if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload(id, 3)); code != http.StatusCreated {
			t.Fatalf("upload %s: %d: %s", id, code, body)
		}
	}
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("a3", 3)); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota upload: %d: %s", code, body)
	}
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("a2", 4)); code != http.StatusCreated {
		t.Fatalf("replacement upload: %d: %s", code, body)
	}
	// Quotas are per tenant: bob is unaffected by alice's usage.
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-b", tinyUpload("b1", 3)); code != http.StatusCreated {
		t.Fatalf("bob upload: %d: %s", code, body)
	}
	// Taking over a public corpus is not a free replacement — it grows the
	// tenant's holdings and must count against the corpus quota.
	if err := Preload(srv, "pub", testMatrix(t, 8, 3, 5), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("pub", 2)); code != http.StatusTooManyRequests {
		t.Fatalf("public takeover over quota: %d: %s", code, body)
	}

	// Entry quota: alice holds 3+4=7 of 10; adding 4 more would exceed it.
	if code, body := authRequest(t, ts, http.MethodDelete, "/v1/corpora/a1", "sk-a", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", code, body)
	}
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("a4", 7)); code != http.StatusTooManyRequests {
		t.Fatalf("entry quota upload: %d: %s", code, body)
	}
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("a4", 6)); code != http.StatusCreated {
		t.Fatalf("within entry quota: %d: %s", code, body)
	}

	_, metrics := authRequest(t, ts, http.MethodGet, "/metrics", "", "")
	for _, want := range []string{
		"bundled_quota_corpora_rejections_total 2",
		"bundled_quota_entries_rejections_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetric(metrics, "quota"))
		}
	}
}

// TestEvictedCorpusKeepsOwnershipAndQuota pins the durable-tenancy
// guarantees to the catalog entry, not the resident engine: LRU-evicting a
// session must not let another tenant take over its ID, must not stop the
// corpus counting against its owner's quotas, and the owner must still be
// able to DELETE it to free both.
func TestEvictedCorpusKeepsOwnershipAndQuota(t *testing.T) {
	auth, err := ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Auth: auth, Store: st, MaxSessions: 1, Quotas: Quotas{MaxCorpora: 2}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Alice's second upload evicts her first session; its record persists.
	for _, id := range []string{"a1", "a2"} {
		if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload(id, 3)); code != http.StatusCreated {
			t.Fatalf("upload %s: %d: %s", id, code, body)
		}
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1 (MaxSessions)", srv.Sessions())
	}
	// The listing reaches past the resident engines: alice sees both
	// corpora (the evicted one holds quota and is deletable), bob sees
	// neither.
	listIDs := func(key string) []string {
		t.Helper()
		code, body := authRequest(t, ts, http.MethodGet, "/v1/corpora", key, "")
		if code != http.StatusOK {
			t.Fatalf("list: %d: %s", code, body)
		}
		var list ListCorporaResponse
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 0, len(list.Corpora))
		for _, c := range list.Corpora {
			ids = append(ids, c.ID)
		}
		return ids
	}
	if ids := listIDs("sk-a"); len(ids) != 2 || ids[0] != "a1" || ids[1] != "a2" {
		t.Fatalf("alice lists %v, want [a1 a2]", ids)
	}
	if ids := listIDs("sk-b"); len(ids) != 0 {
		t.Fatalf("bob lists %v, want none", ids)
	}
	// The evicted corpus still belongs to alice: bob cannot claim its ID.
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-b", tinyUpload("a1", 2)); code != http.StatusForbidden {
		t.Fatalf("takeover of evicted corpus: %d: %s", code, body)
	}
	// ...and it still counts against her corpus quota.
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("a3", 2)); code != http.StatusTooManyRequests {
		t.Fatalf("quota ignored evicted corpus: %d: %s", code, body)
	}
	// Only the owner may delete the evicted corpus; the delete frees both
	// the ID and the quota.
	if code, body := authRequest(t, ts, http.MethodDelete, "/v1/corpora/a1", "sk-b", ""); code != http.StatusForbidden {
		t.Fatalf("bob deleted alice's evicted corpus: %d: %s", code, body)
	}
	if code, body := authRequest(t, ts, http.MethodDelete, "/v1/corpora/a1", "sk-a", ""); code != http.StatusNoContent {
		t.Fatalf("delete evicted corpus: %d: %s", code, body)
	}
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("a3", 2)); code != http.StatusCreated {
		t.Fatalf("upload after freeing quota: %d: %s", code, body)
	}
	// A deleted ID is genuinely free: any tenant may claim it.
	if code, body := authRequest(t, ts, http.MethodDelete, "/v1/corpora/a3", "sk-a", ""); code != http.StatusNoContent {
		t.Fatalf("delete a3: %d: %s", code, body)
	}
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-b", tinyUpload("a1", 2)); code != http.StatusCreated {
		t.Fatalf("claim of deleted id: %d: %s", code, body)
	}
}

// TestEvictedCorpusLazilyReloads: an evicted persisted corpus keeps its
// registry entry — solve/GET re-indexes it on demand (serving identical
// results at the same generation) instead of 404ing an ID the listing
// names, and ownership is checked before the rebuild so other tenants
// cannot make the daemon churn index builds.
func TestEvictedCorpusLazilyReloads(t *testing.T) {
	auth, err := ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Auth: auth, Store: st, MaxSessions: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("e1", 4)); code != http.StatusCreated {
		t.Fatalf("upload e1: %d: %s", code, body)
	}
	solve := func(key string) (int, SolveResponse) {
		code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora/e1/solve", key, `{"algorithm":"matching"}`)
		var resp SolveResponse
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatalf("solve: %v: %s", err, body)
			}
		}
		return code, resp
	}
	code, before := solve("sk-a")
	if code != http.StatusOK {
		t.Fatalf("pre-eviction solve: %d", code)
	}
	// Evict e1's session, then hit it again: bob is rejected without a
	// rebuild, alice gets the same result at the same generation.
	if code, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("e2", 4)); code != http.StatusCreated {
		t.Fatalf("upload e2: %d: %s", code, body)
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", srv.Sessions())
	}
	if code, _ := solve("sk-b"); code != http.StatusForbidden {
		t.Fatalf("bob solve on alice's evicted corpus: %d", code)
	}
	code, after := solve("sk-a")
	if code != http.StatusOK {
		t.Fatalf("post-eviction solve: %d", code)
	}
	if after.Version != before.Version {
		t.Errorf("reloaded generation = %d, want %d", after.Version, before.Version)
	}
	if after.Config.Revenue != before.Config.Revenue {
		t.Errorf("reloaded revenue %g, want %g", after.Config.Revenue, before.Config.Revenue)
	}
	if code, _ := authRequest(t, ts, http.MethodGet, "/v1/corpora/e2", "sk-a", ""); code != http.StatusOK {
		t.Errorf("e2 (evicted by the reload) should lazily reload too")
	}
}

func TestRateQuota(t *testing.T) {
	srv := New(Config{Quotas: Quotas{RequestsPerSecond: 0.001, Burst: 2}})
	defer srv.Close()
	if err := Preload(srv, "demo", testMatrix(t, 10, 4, 4), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Burst of 2, negligible refill: the third request must be rejected.
	for i := 0; i < 2; i++ {
		if code, body := authRequest(t, ts, http.MethodGet, "/v1/corpora/demo", "", ""); code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, code, body)
		}
	}
	code, body := authRequest(t, ts, http.MethodGet, "/v1/corpora/demo", "", "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("third request: %d: %s", code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil || !strings.Contains(er.Error, "quota") {
		t.Errorf("429 body: %s", body)
	}
	// Probes are never rate limited.
	if code, _ := authRequest(t, ts, http.MethodGet, "/healthz", "", ""); code != http.StatusOK {
		t.Errorf("healthz rate limited: %d", code)
	}
	_, metrics := authRequest(t, ts, http.MethodGet, "/metrics", "", "")
	if !strings.Contains(metrics, "bundled_quota_rps_rejections_total 1") {
		t.Errorf("rps counter missing:\n%s", grepMetric(metrics, "rps"))
	}
}

func TestRateGateRefill(t *testing.T) {
	g := newRateGate(Quotas{RequestsPerSecond: 2, Burst: 2}.withDefaults())
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	for i := 0; i < 2; i++ {
		if !g.allow("t") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if g.allow("t") {
		t.Fatal("over-burst request allowed")
	}
	if !g.allow("other") {
		t.Fatal("tenants share a bucket")
	}
	now = now.Add(500 * time.Millisecond) // refills one token at 2 rps
	if !g.allow("t") {
		t.Fatal("refilled token denied")
	}
	if g.allow("t") {
		t.Fatal("second token after half-second refill")
	}
	now = now.Add(time.Hour) // caps at burst, not rps*3600
	for i := 0; i < 2; i++ {
		if !g.allow("t") {
			t.Fatalf("post-idle request %d denied", i)
		}
	}
	if g.allow("t") {
		t.Fatal("bucket exceeded burst after idle")
	}
}

// grepMetric filters an exposition to lines containing substr, for error
// messages.
func grepMetric(metrics, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) && !strings.HasPrefix(line, "#") {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}
