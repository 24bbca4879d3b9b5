package server

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"bundling"
)

// fuzzMethods and fuzzPaths are FuzzHandler's request lines: the /v1,
// /debug and /healthz routes over a preloaded pure corpus, a preloaded
// mixed one and an absent one.
var (
	fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodPatch, http.MethodDelete}
	fuzzPaths   = []string{
		"/v1/corpora",
		"/v1/corpora/pure", "/v1/corpora/mixed", "/v1/corpora/nope",
		"/v1/corpora/pure/solve", "/v1/corpora/mixed/solve", "/v1/corpora/nope/solve",
		"/v1/corpora/pure/evaluate", "/v1/corpora/mixed/evaluate", "/v1/corpora/nope/evaluate",
		"/v1/usage", "/debug/traces", "/debug/traces?limit=1", "/healthz",
	}
)

// FuzzHandler sends one request with an arbitrary body of up to 4 KiB
// through a fresh server's handler. No answer may be a 500, and no handler
// may panic: the engine runs on the handler's goroutine, so an engine
// panic in a solve or an evaluate would show here as a 500.
func FuzzHandler(f *testing.F) {
	post := uint8(slices.Index(fuzzMethods, http.MethodPost))
	seed := func(path, body string) {
		i := slices.Index(fuzzPaths, path)
		if i < 0 {
			f.Fatalf("seed path %s is not in fuzzPaths", path)
		}
		f.Add(post, uint8(i), body)
	}
	for _, c := range httpErrorCases {
		seed(c.path, c.body)
	}
	seed("/v1/corpora/pure/evaluate", `{"offers":[[0,1],[1,2]]}`)
	seed("/v1/corpora/mixed/evaluate", `{"offers":[[0,1],[0,1,2],[3]]}`)
	seed("/v1/corpora/mixed/solve", `{"algorithm":"greedy"}`)
	seed("/v1/corpora", sparseUpload("wide", 8000, ""))
	seed("/v1/corpora", sparseUpload("striped", 8000, `"stripe_size":1`))
	seed("/v1/corpora", sparseUpload("tall", 1<<31, ""))
	f.Fuzz(func(t *testing.T, method, path uint8, body string) {
		if len(body) > 4<<10 {
			t.Skip()
		}
		srv := New(Config{})
		defer srv.Close()
		if err := Preload(srv, "pure", testMatrix(t, 30, 6, 11), bundling.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := Preload(srv, "mixed", testMatrix(t, 30, 6, 12), bundling.Options{Strategy: bundling.Mixed}); err != nil {
			t.Fatal(err)
		}
		m, p := fuzzMethods[int(method)%len(fuzzMethods)], fuzzPaths[int(path)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(m, p, strings.NewReader(body)))
		if panics := srv.met.handlerPanics.Load(); rec.Code == http.StatusInternalServerError || panics != 0 {
			t.Fatalf("%s %s %q: status %d, %d handler panics: %s", m, p, body, rec.Code, panics, rec.Body)
		}
	})
}
