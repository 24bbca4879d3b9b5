package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"bundling"
)

// getUsage fetches and decodes /v1/usage with an optional API key.
func getUsage(t *testing.T, ts *httptest.Server, key string) UsageResponse {
	t.Helper()
	status, body := authRequest(t, ts, http.MethodGet, "/v1/usage", key, "")
	if status != http.StatusOK {
		t.Fatalf("usage: %d: %s", status, body)
	}
	var resp UsageResponse
	if err := decodeString(body, &resp); err != nil {
		t.Fatalf("usage decode: %v\n%s", err, body)
	}
	return resp
}

// TestUsageScriptedCounters runs a fixed request sequence against an open
// daemon and asserts the accounting matches it exactly: request and error
// counts, cache hits, and a corpus row per addressed ID — including an ID
// that never existed (the 404 is still that corpus's traffic).
func TestUsageScriptedCounters(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	up := tinyUpload("shop", 4)
	if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "", up); status != http.StatusCreated {
		t.Fatalf("upload: %d: %s", status, body)
	}
	for i := 0; i < 2; i++ { // second solve is a cache hit
		if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora/shop/solve", "", `{"algorithm":"components"}`); status != http.StatusOK {
			t.Fatalf("solve %d: %d: %s", i, status, body)
		}
	}
	if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora/shop/evaluate", "", `{"offers":[[0],[1]]}`); status != http.StatusOK {
		t.Fatalf("evaluate: %d: %s", status, body)
	}
	if status, _ := authRequest(t, ts, http.MethodPost, "/v1/corpora/ghost/solve", "", `{}`); status != http.StatusNotFound {
		t.Fatalf("ghost solve: %d, want 404", status)
	}

	use := getUsage(t, ts, "")
	if use.Scope != "admin" || use.Tenant != "" {
		t.Fatalf("scope: %+v", use)
	}
	if use.WindowSeconds != 60 {
		t.Errorf("window = %v, want 60", use.WindowSeconds)
	}
	if len(use.Tenants) != 1 {
		t.Fatalf("tenants: %+v", use.Tenants)
	}
	anon := use.Tenants[0]
	if anon.Key != AnonTenant {
		t.Fatalf("tenant key = %q, want %q", anon.Key, AnonTenant)
	}
	// 1 upload + 2 solves + 1 evaluate + 1 ghost solve = 5; the usage call
	// itself is accounted after its handler runs, so it is not yet visible.
	if anon.Requests != 5 || anon.Errors != 1 || anon.CacheHits != 1 {
		t.Errorf("anon row: %+v, want requests=5 errors=1 cache_hits=1", anon)
	}
	if anon.BytesIn <= 0 || anon.BytesOut <= 0 || anon.WallSeconds <= 0 {
		t.Errorf("anon row missing byte/wall accounting: %+v", anon)
	}
	if anon.WindowRequests != 5 || anon.RatePerSec <= 0 {
		t.Errorf("anon window: %+v", anon)
	}

	rows := map[string]UsageRow{}
	for _, row := range use.Corpora {
		rows[row.Key] = row
	}
	if len(rows) != 2 {
		t.Fatalf("corpora: %+v", use.Corpora)
	}
	if shop := rows["shop"]; shop.Requests != 4 || shop.Errors != 0 || shop.CacheHits != 1 {
		t.Errorf("shop row: %+v, want requests=4 errors=0 cache_hits=1", shop)
	}
	if ghost := rows["ghost"]; ghost.Requests != 1 || ghost.Errors != 1 {
		t.Errorf("ghost row: %+v, want requests=1 errors=1", ghost)
	}

	// A second usage call now sees the first one billed to the tenant meter
	// (no corpus addressed, so corpus rows are unchanged).
	use2 := getUsage(t, ts, "")
	if use2.Tenants[0].Requests != 6 {
		t.Errorf("after usage call: requests = %d, want 6", use2.Tenants[0].Requests)
	}
	if len(use2.Corpora) != 2 {
		t.Errorf("after usage call: corpora %+v", use2.Corpora)
	}
}

// TestUsageTenantScoping verifies the authenticated view is tenant-scoped:
// each tenant sees exactly its own tenant row and its own corpora, never the
// neighbour's traffic shape or the overflow bucket.
func TestUsageTenantScoping(t *testing.T) {
	auth, err := ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Auth: auth})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("al", 4)); status != http.StatusCreated {
		t.Fatalf("alice upload: %d: %s", status, body)
	}
	if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-b", tinyUpload("bo", 4)); status != http.StatusCreated {
		t.Fatalf("bob upload: %d: %s", status, body)
	}
	for i := 0; i < 3; i++ {
		if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora/bo/solve", "sk-b", `{"algorithm":"components"}`); status != http.StatusOK {
			t.Fatalf("bob solve: %d: %s", status, body)
		}
	}
	// Guard-rejected traffic must not be billed to anyone.
	if status, _ := authRequest(t, ts, http.MethodGet, "/v1/corpora", "", ""); status != http.StatusUnauthorized {
		t.Fatalf("anonymous list: %d, want 401", status)
	}

	alice := getUsage(t, ts, "sk-a")
	if alice.Scope != "tenant" || alice.Tenant != "alice" {
		t.Fatalf("alice scope: %+v", alice)
	}
	if len(alice.Tenants) != 1 || alice.Tenants[0].Key != "alice" || alice.Tenants[0].Requests != 1 {
		t.Fatalf("alice tenants: %+v", alice.Tenants)
	}
	if len(alice.Corpora) != 1 || alice.Corpora[0].Key != "al" {
		t.Fatalf("alice corpora: %+v", alice.Corpora)
	}

	bob := getUsage(t, ts, "sk-b")
	if len(bob.Tenants) != 1 || bob.Tenants[0].Key != "bob" || bob.Tenants[0].Requests != 4 {
		t.Fatalf("bob tenants: %+v", bob.Tenants)
	}
	if len(bob.Corpora) != 1 || bob.Corpora[0].Key != "bo" || bob.Corpora[0].Requests != 4 {
		t.Fatalf("bob corpora: %+v", bob.Corpora)
	}
}

// TestUsageMetricCardinalityBounded hammers the accountant with 1000
// distinct tenants and asserts /metrics stays bounded: at most top-K+1
// series per usage family, with the long tail folded into "other".
func TestUsageMetricCardinalityBounded(t *testing.T) {
	const distinct, topK = 1000, 8
	keys := make([]string, distinct)
	for i := range keys {
		keys[i] = fmt.Sprintf("t%04d=sk-%04d", i, i)
	}
	auth, err := ParseAuthKeys(strings.Join(keys, ","))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Auth: auth, UsageTopK: topK, UsageMetrics: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < distinct; i++ {
		if status, body := authRequest(t, ts, http.MethodGet, "/v1/corpora", fmt.Sprintf("sk-%04d", i), ""); status != http.StatusOK {
			t.Fatalf("tenant %d list: %d: %s", i, status, body)
		}
	}
	status, text := authRequest(t, ts, http.MethodGet, "/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	series := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "bundled_tenant_requests_total{") {
			series++
		}
	}
	if series != topK+1 {
		t.Errorf("bundled_tenant_requests_total series = %d, want %d (top-K+other)", series, topK+1)
	}
	want := fmt.Sprintf(`bundled_tenant_requests_total{tenant="other"} %d`, distinct-topK)
	if !strings.Contains(text, want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestUsageMetricsOptIn asserts the default posture: /metrics serves
// unauthenticated, so without Config.UsageMetrics the accountant must not
// put tenant or corpus IDs on the wire there — the labeled families are
// reserved for operators who opted in (-usage-metrics). /v1/usage keeps
// serving the same numbers behind the guard either way.
func TestUsageMetricsOptIn(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "", tinyUpload("secret-corpus", 4)); status != http.StatusCreated {
		t.Fatalf("upload: %d: %s", status, body)
	}
	status, text := authRequest(t, ts, http.MethodGet, "/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, family := range []string{"bundled_tenant_", "bundled_corpus_", "secret-corpus"} {
		if strings.Contains(text, family) {
			t.Errorf("default /metrics leaks %q:\n%s", family, grepMetric(text, family))
		}
	}
	use := getUsage(t, ts, "")
	if len(use.Corpora) != 1 || use.Corpora[0].Key != "secret-corpus" {
		t.Errorf("/v1/usage must keep accounting with metrics exposition off: %+v", use.Corpora)
	}
}

// TestUsageCorpusKeyDecoding bills requests under the mux's decoded {id}:
// an encoded slash stays inside the ID, and a literal %XX run decodes
// exactly once — including on 404s, which are still that corpus's traffic.
func TestUsageCorpusKeyDecoding(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/corpora/a%2Fb/solve", `{}`},
		{http.MethodGet, "/v1/corpora/a%2Fb", ""},
		{http.MethodPost, "/v1/corpora/pct%2541/evaluate", `{"offers":[[0]]}`},
	} {
		if status, body := authRequest(t, ts, c.method, c.path, "", c.body); status != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404: %s", c.method, c.path, status, body)
		}
	}
	rows := map[string]UsageRow{}
	for _, row := range getUsage(t, ts, "").Corpora {
		rows[row.Key] = row
	}
	if len(rows) != 2 || rows["a/b"].Requests != 2 || rows["pct%41"].Requests != 1 {
		t.Errorf("corpus rows = %+v, want a/b (2 requests) and pct%%41 (1)", rows)
	}
}

// expositionLine matches one Prometheus text-format sample or comment. The
// label-value alternation forbids raw quotes, newlines and dangling
// backslashes, so a mis-escaped hostile label fails the match.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*",?)*\})? [0-9eE.+-]+(Inf|NaN)?)$`)

// TestUsageMetricsExpositionSanitized uploads corpora with hostile IDs —
// quotes, backslashes, newlines — and then parses every /metrics line
// against the exposition grammar: sanitization must keep the scrape intact.
func TestUsageMetricsExpositionSanitized(t *testing.T) {
	srv := New(Config{UsageMetrics: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hostile := []string{
		`ev"il`,
		`back\slash`,
		"new\nline",
		`mix"ed\every` + "\nthing",
	}
	for _, id := range hostile {
		w := bundling.NewMatrix(2, 2)
		w.MustSet(0, 0, 5)
		w.MustSet(1, 1, 7)
		doc, err := jsonMarshal(CreateCorpusRequest{ID: id, Matrix: bundling.NewMatrixDoc(w)})
		if err != nil {
			t.Fatal(err)
		}
		if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "", string(doc)); status != http.StatusCreated {
			t.Fatalf("upload %q: %d: %s", id, status, body)
		}
	}
	status, text := authRequest(t, ts, http.MethodGet, "/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if !strings.Contains(text, `bundled_corpus_requests_total{corpus="ev\"il"}`) {
		t.Errorf("metrics missing escaped hostile corpus label:\n%s", grepMetric(text, "bundled_corpus_requests_total"))
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("metrics line %d does not parse: %q", i+1, line)
		}
	}
}

// TestSpanCorpusID checks the worker-span-key → corpus-ID mapping the
// fleet scoping relies on (the coordinator keys spans "<corpus>/<start>").
func TestSpanCorpusID(t *testing.T) {
	cases := []struct{ key, want string }{
		{"shop/0", "shop"},
		{"shop/128", "shop"},
		{"a/b/64", "a/b"},
		{"x/123/0", "x/123"},
		{"noslash", "noslash"},
		{"trailing/", "trailing/"},
		{"not/digits", "not/digits"},
	}
	for _, c := range cases {
		if got := spanCorpusID(c.key); got != c.want {
			t.Errorf("spanCorpusID(%q) = %q, want %q", c.key, got, c.want)
		}
	}
}

// TestFleetTenantScoping verifies GET /debug/fleet is scoped like
// /v1/usage: an authenticated tenant sees every worker's health and load
// but only the span rows of its own and public corpora — never another
// tenant's corpus IDs or per-span traffic — while an open daemon serves
// the full admin view.
func TestFleetTenantScoping(t *testing.T) {
	fleet := func(ctx context.Context) FleetResponse {
		return FleetResponse{
			Workers: []FleetWorkerDoc{{
				Addr: "w1", Reachable: true, Status: "ok",
				Spans: []FleetSpanDoc{
					{Corpus: "al/0", Requests: 3},
					{Corpus: "bo/0", Requests: 5},
					{Corpus: "pub/0", Requests: 1},
					{Corpus: "ghost/0", Requests: 9}, // fed once, corpus since deleted
				},
			}},
			Reachable: 1,
		}
	}
	auth, err := ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Auth: auth, Fleet: fleet})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-a", tinyUpload("al", 4)); status != http.StatusCreated {
		t.Fatalf("alice upload: %d: %s", status, body)
	}
	if status, body := authRequest(t, ts, http.MethodPost, "/v1/corpora", "sk-b", tinyUpload("bo", 4)); status != http.StatusCreated {
		t.Fatalf("bob upload: %d: %s", status, body)
	}
	// A corpus registered while auth was off is public: visible to everyone.
	if err := Preload(srv, "pub", testMatrix(t, 4, 2, 1), bundling.Options{}); err != nil {
		t.Fatal(err)
	}

	getFleet := func(key string) FleetResponse {
		t.Helper()
		status, body := authRequest(t, ts, http.MethodGet, "/debug/fleet", key, "")
		if status != http.StatusOK {
			t.Fatalf("fleet (%s): %d: %s", key, status, body)
		}
		var resp FleetResponse
		if err := decodeString(body, &resp); err != nil {
			t.Fatalf("fleet decode: %v\n%s", err, body)
		}
		return resp
	}
	spanKeys := func(resp FleetResponse) []string {
		var keys []string
		for _, w := range resp.Workers {
			for _, sp := range w.Spans {
				keys = append(keys, sp.Corpus)
			}
		}
		return keys
	}

	alice := getFleet("sk-a")
	if alice.Scope != "tenant" || alice.Tenant != "alice" {
		t.Fatalf("alice scope = %q tenant = %q, want tenant/alice", alice.Scope, alice.Tenant)
	}
	if got, want := spanKeys(alice), []string{"al/0", "pub/0"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("alice spans = %v, want %v", got, want)
	}
	if len(alice.Workers) != 1 || !alice.Workers[0].Reachable {
		t.Errorf("scoping must keep the worker rows: %+v", alice.Workers)
	}

	bob := getFleet("sk-b")
	if got, want := spanKeys(bob), []string{"bo/0", "pub/0"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bob spans = %v, want %v", got, want)
	}

	// The open daemon serves the admin view: every span, ghost included.
	osrv := New(Config{Fleet: fleet})
	defer osrv.Close()
	ots := httptest.NewServer(osrv.Handler())
	defer ots.Close()
	status, body := authRequest(t, ots, http.MethodGet, "/debug/fleet", "", "")
	if status != http.StatusOK {
		t.Fatalf("open fleet: %d: %s", status, body)
	}
	var open FleetResponse
	if err := decodeString(body, &open); err != nil {
		t.Fatal(err)
	}
	if open.Scope != "admin" || open.Tenant != "" {
		t.Fatalf("open scope = %q tenant = %q, want admin/\"\"", open.Scope, open.Tenant)
	}
	if got := spanKeys(open); len(got) != 4 {
		t.Errorf("admin spans = %v, want all 4", got)
	}
}
