package server_test

// Restart round-trip regression: corpora uploaded to a durable server must
// be served identically — within 1e-9 — by a fresh server booted on the same
// data directory, with generation counters continuing where they left off.
// The cluster variant proves a restored session re-feeds its worker spans
// through the existing nonce path.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bundling"
	"bundling/internal/cluster"
	"bundling/internal/server"
)

// persistMatrix builds a small deterministic WTP matrix.
func persistMatrix(consumers, items int, seed int64) *bundling.Matrix {
	rng := rand.New(rand.NewSource(seed))
	w := bundling.NewMatrix(consumers, items)
	for u := 0; u < consumers; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.4 {
				w.MustSet(u, i, 1+rng.Float64()*19)
			}
		}
	}
	return w
}

// do issues one JSON request and decodes the response body.
func do(t *testing.T, method, url, key, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
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
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(buf)
}

// uploadBody renders a CreateCorpusRequest for a matrix.
func uploadBody(t *testing.T, id string, w *bundling.Matrix, opts bundling.Options) string {
	t.Helper()
	buf, err := json.Marshal(server.CreateCorpusRequest{
		ID:      id,
		Options: server.NewOptionsDoc(opts),
		Matrix:  bundling.NewMatrixDoc(w),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// solveRevenue solves a corpus over HTTP and returns the full response.
func solveResult(t *testing.T, ts *httptest.Server, key, id, alg string) server.SolveResponse {
	t.Helper()
	code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora/"+id+"/solve", key, fmt.Sprintf(`{"algorithm":%q}`, alg))
	if code != http.StatusOK {
		t.Fatalf("solve %s/%s: %d: %s", id, alg, code, body)
	}
	var resp server.SolveResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("solve %s/%s: %v", id, alg, err)
	}
	return resp
}

// sameConfig asserts two configurations agree within 1e-9 on revenue and on
// every bundle's price and revenue.
func sameConfig(t *testing.T, label string, a, b server.ConfigDoc) {
	t.Helper()
	close := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*(1+math.Abs(x)) }
	if !close(a.Revenue, b.Revenue) || !close(a.Profit, b.Profit) {
		t.Errorf("%s: revenue/profit %g/%g vs %g/%g", label, a.Revenue, a.Profit, b.Revenue, b.Profit)
	}
	if len(a.Bundles) != len(b.Bundles) {
		t.Errorf("%s: %d bundles vs %d", label, len(a.Bundles), len(b.Bundles))
		return
	}
	for i := range a.Bundles {
		if !close(a.Bundles[i].Price, b.Bundles[i].Price) || !close(a.Bundles[i].Revenue, b.Bundles[i].Revenue) {
			t.Errorf("%s: bundle %d %+v vs %+v", label, i, a.Bundles[i], b.Bundles[i])
		}
	}
}

func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Store: st}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())

	type corpus struct {
		id   string
		w    *bundling.Matrix
		opts bundling.Options
	}
	corpora := []corpus{
		{"pure-a", persistMatrix(90, 18, 1), bundling.Options{}},
		{"mixed-b", persistMatrix(70, 14, 2), bundling.Options{Strategy: bundling.Mixed, Theta: -0.03}},
		{"pure-c", persistMatrix(50, 10, 3), bundling.Options{Theta: 0.05, StripeSize: 16}},
	}
	algs := []string{"components", "matching", "greedy"}
	before := map[string]server.SolveResponse{}
	for _, c := range corpora {
		if code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora", "", uploadBody(t, c.id, c.w, c.opts)); code != http.StatusCreated {
			t.Fatalf("upload %s: %d: %s", c.id, code, body)
		}
		for _, alg := range algs {
			before[c.id+"/"+alg] = solveResult(t, ts, "", c.id, alg)
		}
	}
	// Re-upload one corpus so a generation > 1 is persisted and restored;
	// its snapshots move to the new generation.
	if code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora", "", uploadBody(t, "pure-a", corpora[0].w, corpora[0].opts)); code != http.StatusCreated {
		t.Fatalf("re-upload: %d: %s", code, body)
	}
	for _, alg := range algs {
		before["pure-a/"+alg] = solveResult(t, ts, "", "pure-a", alg)
	}
	// Delete one corpus: the delete must be durable too.
	if code, body := do(t, http.MethodDelete, ts.URL+"/v1/corpora/pure-c", "", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", code, body)
	}
	for _, alg := range algs {
		delete(before, "pure-c/"+alg)
	}

	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// --- reboot on the same data dir ------------------------------------
	st2, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := server.New(server.Config{Store: st2})
	defer srv2.Close()
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored != 2 {
		t.Fatalf("restored %d sessions, want 2", restored)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if code, body := do(t, http.MethodGet, ts2.URL+"/v1/corpora/pure-c", "", ""); code != http.StatusNotFound {
		t.Errorf("deleted corpus after restart: %d: %s", code, body)
	}
	for key, want := range before {
		id, alg, _ := strings.Cut(key, "/")
		got := solveResult(t, ts2, "", id, alg)
		sameConfig(t, key, want.Config, got.Config)
		if got.Version != want.Version {
			t.Errorf("%s: version %d after restart, want %d", key, got.Version, want.Version)
		}
	}

	// Post-restart uploads continue the generation sequences — including
	// the deleted ID's, so its old cache keys can never be reused.
	var info server.CorpusInfo
	code, body := do(t, http.MethodPost, ts2.URL+"/v1/corpora", "", uploadBody(t, "pure-a", corpora[0].w, corpora[0].opts))
	if code != http.StatusCreated {
		t.Fatalf("post-restart re-upload: %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 {
		t.Errorf("pure-a generation after restart re-upload = %d, want 3", info.Version)
	}
	code, body = do(t, http.MethodPost, ts2.URL+"/v1/corpora", "", uploadBody(t, "pure-c", corpora[2].w, corpora[2].opts))
	if code != http.StatusCreated {
		t.Fatalf("re-create deleted: %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Errorf("re-created deleted corpus generation = %d, want 2", info.Version)
	}
}

// TestLazyBootDoesNotReadRecords pins the O(manifest) boot contract: a
// restart must serve /healthz and listings from manifest metadata alone —
// no record file is opened — and each corpus re-indexes lazily on its first
// solve, with results identical within 1e-9. The proof is blunt: every
// record file is replaced with garbage before the reboot, so any boot-time
// read would fail loudly.
func TestLazyBootDoesNotReadRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Store: st})
	ts := httptest.NewServer(srv.Handler())
	ids := []string{"a", "b", "c"}
	want := map[string]server.SolveResponse{}
	for i, id := range ids {
		w := persistMatrix(60+10*i, 12, int64(40+i))
		if code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora", "", uploadBody(t, id, w, bundling.Options{Theta: -0.02})); code != http.StatusCreated {
			t.Fatalf("upload %s: %d: %s", id, code, body)
		}
		want[id] = solveResult(t, ts, "", id, "matching")
	}
	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Poison every record file. Boot must not notice.
	recFiles, err := filepath.Glob(filepath.Join(dir, "corpora", "*"))
	if err != nil || len(recFiles) != len(ids) {
		t.Fatalf("record files = %v, %v; want %d", recFiles, err, len(ids))
	}
	saved := map[string][]byte{}
	for _, f := range recFiles {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		saved[f] = buf
		if err := os.WriteFile(f, []byte("not a record"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := server.New(server.Config{Store: st2})
	defer srv2.Close()
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatalf("lazy restore read a record file: %v", err)
	}
	if restored != len(ids) {
		t.Fatalf("restored = %d, want %d", restored, len(ids))
	}
	if n := srv2.Sessions(); n != 0 {
		t.Fatalf("boot indexed %d sessions; lazy restore must index none", n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if code, body := do(t, http.MethodGet, ts2.URL+"/healthz", "", ""); code != http.StatusOK {
		t.Fatalf("healthz after lazy boot: %d: %s", code, body)
	}
	code, body := do(t, http.MethodGet, ts2.URL+"/v1/corpora", "", "")
	if code != http.StatusOK {
		t.Fatalf("list after lazy boot: %d: %s", code, body)
	}
	var list server.ListCorporaResponse
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Corpora) != len(ids) {
		t.Fatalf("listing shows %d corpora, want %d: %s", len(list.Corpora), len(ids), body)
	}
	if n := srv2.Sessions(); n != 0 {
		t.Fatalf("listing indexed %d sessions; must serve from manifest metadata", n)
	}

	// Heal the files; each first solve re-indexes its engine-less entry and
	// must match the pre-restart result exactly.
	for f, buf := range saved {
		if err := os.WriteFile(f, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		got := solveResult(t, ts2, "", id, "matching")
		sameConfig(t, id+"/matching", want[id].Config, got.Config)
		if got.Version != want[id].Version {
			t.Errorf("%s: version %d after lazy restore, want %d", id, got.Version, want[id].Version)
		}
	}
	if n := srv2.Sessions(); n != len(ids) {
		t.Errorf("after first solves, %d sessions live, want %d", n, len(ids))
	}
}

// TestRestartContinuesPatchedCorpus: a PATCHed corpus restarts at its head
// generation and entry count, read from its delta log — boot opens no
// snapshot record, so a poisoned one goes unnoticed — and once the snapshot
// heals, the next PATCH answers the head's next generation and a solve
// equals a rebuild of the replayed matrix.
func TestRestartContinuesPatchedCorpus(t *testing.T) {
	dir := t.TempDir()
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Store: st})
	ts := httptest.NewServer(srv.Handler())
	w := persistMatrix(60, 12, 50)
	opts := bundling.Options{Theta: -0.02}
	if code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora", "", uploadBody(t, "p", w, opts)); code != http.StatusCreated {
		t.Fatalf("upload: %d: %s", code, body)
	}
	rng := rand.New(rand.NewSource(50))
	patch := func(ts *httptest.Server, want int) {
		t.Helper()
		cells := make([]bundling.DeltaCell, 4)
		for k := range cells {
			cells[k] = bundling.DeltaCell{Consumer: rng.Intn(60), Item: rng.Intn(12), Value: 1 + rng.Float64()*19}
			if k == 3 {
				cells[k].Value, cells[k].Delete = 0, true
			}
		}
		buf, err := json.Marshal(server.MutateCorpusRequest{Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		code, body := do(t, http.MethodPatch, ts.URL+"/v1/corpora/p", "", string(buf))
		var out server.MutateCorpusResponse
		if code != http.StatusOK || json.Unmarshal([]byte(body), &out) != nil || out.Version != want {
			t.Fatalf("patch: %d: %s; want 200 at generation %d", code, body, want)
		}
		for _, c := range cells {
			if c.Delete {
				if err := w.Delete(c.Consumer, c.Item); err != nil {
					t.Fatal(err)
				}
			} else {
				w.MustSet(c.Consumer, c.Item, c.Value)
			}
		}
	}
	for gen := 2; gen <= 4; gen++ {
		patch(ts, gen)
	}
	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Poison the snapshot record; the delta log stays as written.
	snaps, err := filepath.Glob(filepath.Join(dir, "corpora", "*.bin"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot records = %v, %v; want 1", snaps, err)
	}
	saved, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0], []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := server.New(server.Config{Store: st2})
	defer srv2.Close()
	if restored, err := srv2.Restore(); err != nil || restored != 1 {
		t.Fatalf("restore: %d, %v", restored, err)
	}
	if n := srv2.Sessions(); n != 0 {
		t.Fatalf("boot indexed %d sessions; lazy restore must index none", n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	code, body := do(t, http.MethodGet, ts2.URL+"/v1/corpora", "", "")
	var list server.ListCorporaResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &list) != nil || len(list.Corpora) != 1 {
		t.Fatalf("list after restart: %d: %s", code, body)
	}
	if got := list.Corpora[0]; got.Version != 4 || got.Entries != w.Entries() {
		t.Fatalf("restart lists p at generation %d with %d entries, want the head, generation 4 with %d", got.Version, got.Entries, w.Entries())
	}

	if err := os.WriteFile(snaps[0], saved, 0o644); err != nil {
		t.Fatal(err)
	}
	patch(ts2, 5)
	direct, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := direct.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	got := solveResult(t, ts2, "", "p", "matching")
	if got.Version != 5 || math.Abs(ref.Revenue-got.Config.Revenue) > 1e-9*(1+math.Abs(ref.Revenue)) {
		t.Errorf("after the restart and a PATCH, p solves at generation %d to %.12f; want generation 5 and the rebuild's %.12f", got.Version, got.Config.Revenue, ref.Revenue)
	}
}

// TestRestartRoundTripCluster reboots a durable daemon whose engine is the
// cluster coordinator: restored sessions must re-feed worker spans (fresh
// nonce, eager feed — the existing upload path) and serve identical results.
func TestRestartRoundTripCluster(t *testing.T) {
	wk := cluster.NewWorker(cluster.WorkerConfig{})
	transports := []cluster.Transport{cluster.NewLocal(wk, "w0")}
	clusterCfg := func(st *server.Store) server.Config {
		return server.Config{
			Store: st,
			NewSolver: func(w *bundling.Matrix, opts bundling.Options) (server.Solver, error) {
				return cluster.NewSolver(w, opts, cluster.Config{Workers: transports})
			},
		}
	}

	dir := t.TempDir()
	st, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(clusterCfg(st))
	ts := httptest.NewServer(srv.Handler())
	w := persistMatrix(120, 20, 7)
	opts := bundling.Options{StripeSize: 32}
	if code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora", "", uploadBody(t, "clustered", w, opts)); code != http.StatusCreated {
		t.Fatalf("upload: %d: %s", code, body)
	}
	want := solveResult(t, ts, "", "clustered", "matching")
	ts.Close()
	srv.Close() // drops the session's spans from the worker
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if h, _ := transports[0].Health(context.Background()); len(h.Spans) != 0 {
		t.Fatalf("worker still holds %d spans after shutdown", len(h.Spans))
	}

	st2, err := server.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := server.New(clusterCfg(st2))
	defer srv2.Close()
	if restored, err := srv2.Restore(); err != nil || restored != 1 {
		t.Fatalf("restore: %d, %v", restored, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	got := solveResult(t, ts2, "", "clustered", "matching")
	sameConfig(t, "clustered/matching", want.Config, got.Config)
	// By the end of the solve the restored session has fed its spans back
	// to the fleet — eagerly at restore, or lazily through the nonce path.
	if h, _ := transports[0].Health(context.Background()); len(h.Spans) == 0 {
		t.Fatal("restored session fed no spans to the worker")
	}

	// Against a local (non-cluster) engine the restored corpus must price
	// identically too — persistence round-trips the exact matrix.
	direct, err := bundling.NewSolver(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := direct.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref.Revenue-got.Config.Revenue) > 1e-9*(1+math.Abs(ref.Revenue)) {
		t.Errorf("cluster restore revenue %g vs direct %g", got.Config.Revenue, ref.Revenue)
	}
}
