package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"bundling"
)

// historyIDs are the corpus IDs a history's operations draw from, and
// historyKeys the API keys of its two tenants.
var (
	historyIDs  = []string{"h0", "h1", "h2", "h3"}
	historyKeys = []string{"sk-a", "sk-b"}
)

// historyAllowed is each operation's contract under concurrency: the
// statuses a racing client may see. A 500 is never among them.
var historyAllowed = map[string][]int{
	"upload": {http.StatusCreated, http.StatusForbidden, http.StatusTooManyRequests},
	"patch":  {http.StatusOK, http.StatusForbidden, http.StatusNotFound, http.StatusConflict},
	"delete": {http.StatusNoContent, http.StatusForbidden, http.StatusNotFound},
	"solve":  {http.StatusOK, http.StatusForbidden, http.StatusNotFound},
	"list":   {http.StatusOK},
}

// serve runs one request through h and returns its status and body.
func serve(h http.Handler, method, path, key, body string) (int, string) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// runHistory drives four clients through h, each a seeded mix of upload,
// PATCH, DELETE, solve and list over historyIDs as either tenant. Every
// corpus has one shape, so a PATCH's cells are always in range. A response
// outside its operation's contract fails the test.
func runHistory(t *testing.T, h http.Handler, seed int64) {
	t.Helper()
	const consumers, items = 12, 6
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(g)))
			for step := 0; step < 40; step++ {
				key := historyKeys[rng.Intn(len(historyKeys))]
				id := historyIDs[rng.Intn(len(historyIDs))]
				var op, method, path, body string
				switch n := rng.Intn(10); {
				case n < 2:
					op, method, path = "upload", http.MethodPost, "/v1/corpora"
					w := bundling.NewMatrix(consumers, items)
					for u := 0; u < consumers; u++ {
						w.MustSet(u, rng.Intn(items), 1+rng.Float64()*19)
						w.MustSet(u, rng.Intn(items), 1+rng.Float64()*19)
					}
					buf, _ := json.Marshal(CreateCorpusRequest{ID: id, Matrix: bundling.NewMatrixDoc(w)})
					body = string(buf)
				case n < 4:
					op, method, path = "patch", http.MethodPatch, "/v1/corpora/"+id
					cells := []bundling.DeltaCell{{Consumer: rng.Intn(consumers), Item: rng.Intn(items), Value: 1 + rng.Float64()*19}}
					if rng.Intn(3) == 0 {
						cells = append(cells, bundling.DeltaCell{Consumer: rng.Intn(consumers), Item: rng.Intn(items), Delete: true})
					}
					buf, _ := json.Marshal(MutateCorpusRequest{Cells: cells})
					body = string(buf)
				case n < 5:
					op, method, path = "delete", http.MethodDelete, "/v1/corpora/"+id
				case n < 9:
					op, method, path, body = "solve", http.MethodPost, "/v1/corpora/"+id+"/solve", `{"algorithm":"matching"}`
				default:
					op, method, path = "list", http.MethodGet, "/v1/corpora"
				}
				if code, resp := serve(h, method, path, key, body); !slices.Contains(historyAllowed[op], code) {
					t.Errorf("client %d step %d: %s %s as %s = %d: %s", g, step, op, id, key, code, resp)
				}
			}
		}(g)
	}
	wg.Wait()
}

// historyListings lists the corpora each tenant sees, keyed by API key.
func historyListings(t *testing.T, h http.Handler) map[string][]CorpusInfo {
	t.Helper()
	out := map[string][]CorpusInfo{}
	for _, key := range historyKeys {
		code, body := serve(h, http.MethodGet, "/v1/corpora", key, "")
		var list ListCorporaResponse
		if code != http.StatusOK || json.Unmarshal([]byte(body), &list) != nil {
			t.Fatalf("list as %s: %d: %s", key, code, body)
		}
		out[key] = list.Corpora
	}
	return out
}

// historyServes checks that every listed corpus solves with 200 at its
// listed generation, for the tenant that lists it, and that every other ID
// answers 404. It returns the revenues by ID.
func historyServes(t *testing.T, label string, h http.Handler, lists map[string][]CorpusInfo) map[string]float64 {
	t.Helper()
	revenues := map[string]float64{}
	for key, infos := range lists {
		for _, info := range infos {
			code, body := serve(h, http.MethodPost, "/v1/corpora/"+info.ID+"/solve", key, `{"algorithm":"matching"}`)
			var resp SolveResponse
			if code != http.StatusOK || json.Unmarshal([]byte(body), &resp) != nil {
				t.Errorf("%s: listed %s does not solve as %s: %d: %s", label, info.ID, key, code, body)
				continue
			}
			if resp.Version != info.Version {
				t.Errorf("%s: %s solved at generation %d, listed at %d", label, info.ID, resp.Version, info.Version)
			}
			revenues[info.ID] = resp.Config.Revenue
		}
	}
	for _, id := range historyIDs {
		if _, listed := revenues[id]; listed {
			continue
		}
		for _, key := range historyKeys {
			if code, body := serve(h, http.MethodPost, "/v1/corpora/"+id+"/solve", key, `{"algorithm":"matching"}`); code != http.StatusNotFound {
				t.Errorf("%s: unlisted %s answers %d as %s, want 404: %s", label, id, code, key, body)
			}
		}
	}
	return revenues
}

// TestConcurrentHistoryMatchesRestart runs concurrent upload, PATCH,
// DELETE, solve and list histories against a durable two-tenant daemon
// with one resident session, so nearly every request evicts or reloads a
// corpus. Afterwards a daemon restored from the same data dir must list
// the same corpora — ID, generation, owner and sizes — and both daemons
// must serve every listed corpus, with equal revenues, and nothing else.
// The same history without a data dir must serve whatever it lists.
func TestConcurrentHistoryMatchesRestart(t *testing.T) {
	auth, err := ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	config := func(st *Store) Config {
		return Config{Auth: auth, Store: st, MaxSessions: 1, Quotas: Quotas{MaxCorpora: 3}}
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(config(st))
	runHistory(t, srv.Handler(), 1)
	before := historyListings(t, srv.Handler())
	want := historyServes(t, "live", srv.Handler(), before)
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := New(config(st2))
	defer srv2.Close()
	if _, err := srv2.Restore(); err != nil {
		t.Fatal(err)
	}
	after := historyListings(t, srv2.Handler())
	type row struct {
		ID                        string
		Version                   int
		Tenant                    string
		Entries, Consumers, Items int
	}
	rows := func(infos []CorpusInfo) []row {
		out := make([]row, len(infos))
		for i, c := range infos {
			out[i] = row{c.ID, c.Version, c.Tenant, c.Entries, c.Consumers, c.Items}
		}
		return out
	}
	for _, key := range historyKeys {
		if a, b := rows(before[key]), rows(after[key]); !slices.Equal(a, b) {
			t.Errorf("listing as %s: live %+v, restored %+v", key, a, b)
		}
	}
	got := historyServes(t, "restored", srv2.Handler(), after)
	for id, rev := range want {
		if math.Abs(got[id]-rev) > 1e-9*(1+math.Abs(rev)) {
			t.Errorf("%s: restored revenue %.12f, live %.12f", id, got[id], rev)
		}
	}

	mem := New(config(nil))
	defer mem.Close()
	runHistory(t, mem.Handler(), 1)
	historyServes(t, "memory-only", mem.Handler(), historyListings(t, mem.Handler()))
}
