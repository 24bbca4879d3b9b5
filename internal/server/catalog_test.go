package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"bundling"
)

// TestReloadWaitsForItsGeneration: an upload whose persist has not landed
// yet can be LRU-evicted. A request that reloads the entry must wait for
// that generation's record and serve it — never the older generation the
// disk still holds.
func TestReloadWaitsForItsGeneration(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Store: st, MaxSessions: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	uploadDoc(t, ts, "a", bundling.NewMatrixDoc(testMatrix(t, 30, 6, 1)), OptionsDoc{})

	// Generation 2 of "a" is installed, its persist still to come, when an
	// upload of "b" evicts it.
	w2 := testMatrix(t, 30, 6, 2)
	sess, err := srv.register("a", "", w2, bundling.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	uploadDoc(t, ts, "b", bundling.NewMatrixDoc(testMatrix(t, 30, 6, 3)), OptionsDoc{})
	if e, _ := srv.reg.peek("a"); e.solver != nil || e.version != 2 {
		t.Fatalf("entry a = generation %d, resident %v; want generation 2 evicted", e.version, e.solver != nil)
	}
	type result struct {
		code int
		body string
	}
	solved := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts, "/v1/corpora/a/solve", `{"algorithm":"matching"}`)
		solved <- result{resp.StatusCode, body}
	}()
	if err := st.Put(CorpusRecord{ID: "a", Generation: 2, Matrix: bundling.NewMatrixDoc(w2), Entries: w2.Entries()}); err != nil {
		t.Fatal(err)
	}
	close(sess.durable)
	res := <-solved
	var out SolveResponse
	if res.code != http.StatusOK || decodeString(res.body, &out) != nil {
		t.Fatalf("solve of the evicted generation: %d: %s", res.code, res.body)
	}
	direct, err := bundling.NewSolver(w2, bundling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != 2 || out.Config.Revenue != want.Revenue {
		t.Fatalf("reload served generation %d, revenue %g; want generation 2, revenue %g", out.Version, out.Config.Revenue, want.Revenue)
	}
}

// TestPreloadShadowsPersistedCorpus: a preloaded session (the -demo corpus)
// may replace a persisted corpus of the same ID. It is not persisted, so
// when it is evicted the persisted corpus is listed and served again.
func TestPreloadShadowsPersistedCorpus(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st})
	ts := httptest.NewServer(srv.Handler())
	uploadDoc(t, ts, "demo", bundling.NewMatrixDoc(testMatrix(t, 30, 6, 1)), OptionsDoc{})
	want, _ := solveRevenue(t, ts, "demo", "matching")
	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv = New(Config{Store: st, MaxSessions: 1})
	defer srv.Close()
	if _, err := srv.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := Preload(srv, "demo", testMatrix(t, 20, 4, 2), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()
	listed := func() CorpusInfo {
		t.Helper()
		_, body := postGet(t, ts, "/v1/corpora")
		var list ListCorporaResponse
		if err := decodeString(body, &list); err != nil {
			t.Fatal(err)
		}
		for _, c := range list.Corpora {
			if c.ID == "demo" {
				return c
			}
		}
		t.Fatalf("demo not listed: %s", body)
		return CorpusInfo{}
	}
	if c := listed(); c.Version != 2 || c.Consumers != 20 {
		t.Fatalf("preloaded demo listed as %+v, want generation 2 with 20 consumers", c)
	}
	uploadDoc(t, ts, "other", bundling.NewMatrixDoc(testMatrix(t, 10, 3, 3)), OptionsDoc{}) // evicts the preload
	if c := listed(); c.Version != 1 || c.Consumers != 30 {
		t.Fatalf("after evicting the preload demo is listed as %+v, want the persisted generation 1", c)
	}
	if got, _ := solveRevenue(t, ts, "demo", "matching"); got != want {
		t.Fatalf("persisted demo revenue %g after the preload's eviction, want %g", got, want)
	}
}

// TestFailedPersistRollsBack: an upload or PATCH whose record cannot be
// written answers 500, and its entry goes back to the generation the disk
// still holds — listed, and served once the disk heals.
func TestFailedPersistRollsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	uploadDoc(t, ts, "a", bundling.NewMatrixDoc(testMatrix(t, 30, 6, 1)), OptionsDoc{})
	want, _ := solveRevenue(t, ts, "a", "matching")

	// A file where the records directory was makes every record write fail.
	records := filepath.Join(dir, "corpora")
	breakDisk := func() {
		t.Helper()
		if err := os.Rename(records, records+".off"); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(records, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	healDisk := func() {
		t.Helper()
		if err := os.Remove(records); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(records+".off", records); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []string{"upload", "patch"} {
		breakDisk()
		var resp *http.Response
		var body string
		if op == "upload" {
			buf, _ := jsonMarshal(CreateCorpusRequest{ID: "a", Matrix: bundling.NewMatrixDoc(testMatrix(t, 20, 6, 2))})
			resp, body = postJSON(t, ts, "/v1/corpora", string(buf))
		} else {
			resp, body = patchBody(t, ts, "a", "application/json", []byte(`{"cells":[{"consumer":0,"item":0,"value":19}]}`))
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s onto a broken disk: %d: %s", op, resp.StatusCode, body)
		}
		_, body = postGet(t, ts, "/v1/corpora")
		var list ListCorporaResponse
		if err := decodeString(body, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Corpora) != 1 || list.Corpora[0].Version != 1 || list.Corpora[0].Consumers != 30 {
			t.Fatalf("after the failed %s the listing is %s, want a at generation 1", op, body)
		}
		healDisk()
		if got, _ := solveRevenue(t, ts, "a", "matching"); got != want {
			t.Fatalf("after the failed %s a solves to %g, want generation 1's %g", op, got, want)
		}
	}
}

// TestPatchPreloadStaysMemoryOnly: a PATCH of a preloaded corpus (the -demo
// corpus) in a daemon with a data dir applies in memory only — it answers
// 200 at the next generation, the corpus stays listed and solvable, and no
// record of it reaches the disk, so a restart does not list it. A PATCHed
// preload that shadows a persisted corpus still gives way to it when
// evicted.
func TestPatchPreloadStaysMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st})
	ts := httptest.NewServer(srv.Handler())
	uploadDoc(t, ts, "kept", bundling.NewMatrixDoc(testMatrix(t, 30, 6, 1)), OptionsDoc{})
	w := testMatrix(t, 20, 4, 2)
	if err := Preload(srv, "demo", w, bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	cells := []bundling.DeltaCell{{Consumer: 1, Item: 2, Value: 7.5}, {Consumer: 3, Item: 0, Delete: true}}
	buf, err := jsonMarshal(MutateCorpusRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := patchBody(t, ts, "demo", "application/json", buf)
	var out MutateCorpusResponse
	if resp.StatusCode != http.StatusOK || decodeString(body, &out) != nil || out.Version != 2 {
		t.Fatalf("PATCH of the preload: %d %s, want 200 at generation 2", resp.StatusCode, body)
	}
	listed := func(ts *httptest.Server) map[string]CorpusInfo {
		t.Helper()
		_, body := postGet(t, ts, "/v1/corpora")
		var list ListCorporaResponse
		if err := decodeString(body, &list); err != nil {
			t.Fatal(err)
		}
		byID := map[string]CorpusInfo{}
		for _, c := range list.Corpora {
			byID[c.ID] = c
		}
		return byID
	}
	if c, ok := listed(ts)["demo"]; !ok || c.Version != 2 {
		t.Fatalf("after the PATCH demo is listed as %+v (listed %v), want generation 2", c, ok)
	}
	applyCells(t, w, cells)
	direct, err := bundling.NewSolver(w, bundling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := solveRevenue(t, ts, "demo", "matching"); got != want.Revenue {
		t.Fatalf("patched demo revenue %g, want %g", got, want.Revenue)
	}
	if live, _ := st.Catalog(); len(live) != 1 {
		t.Fatalf("store catalog %v, want only the uploaded corpus", live)
	}
	records, err := os.ReadDir(filepath.Join(dir, "corpora"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if key, _, ok := parseRecordName(r.Name()); ok && key == recordName("demo") {
			t.Errorf("the data dir holds record %s for the memory-only demo", r.Name())
		}
	}
	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv = New(Config{Store: st, MaxSessions: 1})
	defer srv.Close()
	if _, err := srv.Restore(); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()
	if c, ok := listed(ts)["demo"]; ok {
		t.Fatalf("a server restored from the data dir lists demo: %+v", c)
	}

	// A preload of "kept" shadows the persisted corpus; PATCHed and then
	// evicted, it must give way to it again.
	keptWant, _ := solveRevenue(t, ts, "kept", "matching")
	if err := Preload(srv, "kept", testMatrix(t, 20, 4, 3), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	if resp, body := patchBody(t, ts, "kept", "application/json", buf); resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH of the shadowing preload: %d %s", resp.StatusCode, body)
	}
	uploadDoc(t, ts, "other", bundling.NewMatrixDoc(testMatrix(t, 10, 3, 4)), OptionsDoc{}) // evicts the preload
	if c := listed(ts)["kept"]; c.Version != 1 || c.Consumers != 30 {
		t.Fatalf("after evicting the PATCHed preload kept is listed as %+v, want the persisted generation 1", c)
	}
	if got, _ := solveRevenue(t, ts, "kept", "matching"); got != keptWant {
		t.Fatalf("persisted kept revenue %g after the preload's eviction, want %g", got, keptWant)
	}
}
