package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"bundling"
	"bundling/internal/codec"
)

// patchBody sends a PATCH to /v1/corpora/{id} with an explicit content type.
func patchBody(t testing.TB, ts *httptest.Server, id, contentType string, body []byte) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/corpora/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	_, _ = copyAll(&sb, resp.Body)
	return resp, sb.String()
}

// randCells draws a mutation batch with the harness's hostile mix: adds,
// updates, deletes (often of absent cells), duplicate coordinates and no-op
// updates that rewrite a cell to its current value.
func randCells(rng *rand.Rand, w *bundling.Matrix, n int) []bundling.DeltaCell {
	cells := make([]bundling.DeltaCell, 0, n)
	for len(cells) < n {
		u, i := rng.Intn(w.Consumers()), rng.Intn(w.Items())
		c := bundling.DeltaCell{Consumer: u, Item: i}
		switch rng.Intn(5) {
		case 0:
			c.Delete = true
		case 1:
			if v := w.At(u, i); v > 0 {
				c.Value = v // no-op update
			} else {
				c.Value = 1 + rng.Float64()*19
			}
		default:
			c.Value = 1 + rng.Float64()*19
		}
		cells = append(cells, c)
		if rng.Intn(4) == 0 { // duplicate coordinate, later write wins
			dup := c
			dup.Delete = false
			dup.Value = 1 + rng.Float64()*19
			cells = append(cells, dup)
		}
	}
	return cells
}

// applyCells replays a batch onto a matrix through the plain mutation path —
// the from-scratch half of the differential harness.
func applyCells(t testing.TB, w *bundling.Matrix, cells []bundling.DeltaCell) {
	t.Helper()
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

// uploadDoc uploads a corpus document under id and returns its info.
func uploadDoc(t testing.TB, ts *httptest.Server, id string, doc *bundling.MatrixDoc, opts OptionsDoc) CorpusInfo {
	t.Helper()
	buf, err := jsonMarshal(CreateCorpusRequest{ID: id, Options: opts, Matrix: doc})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/corpora", string(buf))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: %d: %s", id, resp.StatusCode, body)
	}
	var info CorpusInfo
	if err := decodeString(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// solveRevenue solves one algorithm over HTTP and returns revenue plus the
// cached flag.
func solveRevenue(t testing.TB, ts *httptest.Server, id, alg string) (float64, bool) {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/corpora/"+id+"/solve", fmt.Sprintf(`{"algorithm":%q}`, alg))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve %s/%s: %d: %s", id, alg, resp.StatusCode, body)
	}
	var out SolveResponse
	if err := decodeString(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Config.Revenue, out.Cached
}

// TestPatchDifferentialMatchesRebuild is the serving half of the
// differential harness: seeded random delta sequences applied through
// PATCH — JSON and binary codec payloads interleaved — must leave the
// session agreeing with a from-scratch rebuild on all five algorithms and
// Evaluate within 1e-9, with every cached result of the old generation
// retired.
func TestPatchDifferentialMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		srv := New(Config{})
		ts := httptest.NewServer(srv.Handler())
		rng := rand.New(rand.NewSource(seed * 31))
		opts := OptionsDoc{Strategy: "pure", Theta: -0.05}
		shadow := testMatrix(t, 90, 14, seed)
		id := fmt.Sprintf("diff-%d", seed)
		uploadDoc(t, ts, id, bundling.NewMatrixDoc(shadow), opts)
		for round := 0; round < 4; round++ {
			cells := randCells(rng, shadow, 4+rng.Intn(8))
			var resp *http.Response
			var body string
			if round%2 == 0 {
				buf, err := jsonMarshal(MutateCorpusRequest{Cells: cells})
				if err != nil {
					t.Fatal(err)
				}
				resp, body = patchBody(t, ts, id, "application/json", buf)
			} else {
				d := codec.DeltaFromCells(id, uint64(round+1), cells)
				resp, body = patchBody(t, ts, id, codec.ContentType, codec.EncodeDelta(d))
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d round %d: patch: %d: %s", seed, round, resp.StatusCode, body)
			}
			var out MutateCorpusResponse
			if err := decodeString(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Version != round+2 {
				t.Fatalf("seed %d round %d: generation %d, want %d", seed, round, out.Version, round+2)
			}
			applyCells(t, shadow, cells)
			libOpts, err := opts.options()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := bundling.NewSolver(shadow, libOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range bundling.Algorithms() {
				want, err := direct.Solve(alg)
				if err != nil {
					t.Fatal(err)
				}
				got, cached := solveRevenue(t, ts, id, alg.Name())
				if cached {
					t.Fatalf("seed %d round %d: %s served a cached result across the mutation", seed, round, alg.Name())
				}
				if math.Abs(got-want.Revenue) > 1e-9*(1+math.Abs(want.Revenue)) {
					t.Fatalf("seed %d round %d %s: revenue %.12f != rebuild %.12f", seed, round, alg.Name(), got, want.Revenue)
				}
			}
			want, err := direct.Evaluate([][]int{{0, 1, 2}, {3, 4}, {7}})
			if err != nil {
				t.Fatal(err)
			}
			resp, body = postJSON(t, ts, "/v1/corpora/"+id+"/evaluate", `{"offers":[[0,1,2],[3,4],[7]]}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
			}
			var ev EvaluateResponse
			if err := decodeString(body, &ev); err != nil {
				t.Fatal(err)
			}
			if math.Abs(ev.Config.Revenue-want.Revenue) > 1e-9*(1+math.Abs(want.Revenue)) {
				t.Fatalf("seed %d round %d evaluate: %.12f != %.12f", seed, round, ev.Config.Revenue, want.Revenue)
			}
		}
		ts.Close()
		srv.Close()
	}
}

// TestPatchConditionsAndValidation covers the mutation API's error
// contract: stale if_generation is 409 and applies nothing, empty and
// malformed deltas are 400, an unknown corpus is 404, and a binary delta
// naming a different corpus than the path is rejected.
func TestPatchConditionsAndValidation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shadow := testMatrix(t, 40, 8, 5)
	uploadDoc(t, ts, "cond", bundling.NewMatrixDoc(shadow), OptionsDoc{})
	before, _ := solveRevenue(t, ts, "cond", "matching")

	body, _ := jsonMarshal(MutateCorpusRequest{IfGeneration: 99, Cells: []bundling.DeltaCell{{Consumer: 0, Item: 0, Value: 5}}})
	resp, text := patchBody(t, ts, "cond", "application/json", body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale if_generation: %d: %s", resp.StatusCode, text)
	}
	if after, _ := solveRevenue(t, ts, "cond", "matching"); after != before {
		t.Fatalf("rejected patch mutated the corpus: %.12f != %.12f", after, before)
	}

	for name, tc := range map[string]struct {
		payload string
		status  int
	}{
		"empty cells":     {`{"cells":[]}`, http.StatusBadRequest},
		"out of range":    {`{"cells":[{"consumer":40,"item":0,"value":1}]}`, http.StatusBadRequest},
		"negative value":  {`{"cells":[{"consumer":0,"item":0,"value":-2}]}`, http.StatusBadRequest},
		"delete with wtp": {`{"cells":[{"consumer":0,"item":0,"value":3,"delete":true}]}`, http.StatusBadRequest},
	} {
		resp, text := patchBody(t, ts, "cond", "application/json", []byte(tc.payload))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: %d want %d: %s", name, resp.StatusCode, tc.status, text)
		}
	}

	body, _ = jsonMarshal(MutateCorpusRequest{Cells: []bundling.DeltaCell{{Consumer: 0, Item: 0, Value: 5}}})
	if resp, _ := patchBody(t, ts, "nope", "application/json", body); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown corpus: %d", resp.StatusCode)
	}

	d := codec.DeltaFromCells("other", 0, []bundling.DeltaCell{{Consumer: 0, Item: 0, Value: 5}})
	if resp, text := patchBody(t, ts, "cond", codec.ContentType, codec.EncodeDelta(d)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched binary corpus id: %d: %s", resp.StatusCode, text)
	}
	if resp, text := patchBody(t, ts, "cond", codec.ContentType, []byte{0xff, 0x01}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage binary delta: %d: %s", resp.StatusCode, text)
	}
}

// TestPatchPersistRestartAndFold proves the generation-chained store
// records: a patched corpus restarts into exactly the mutated state (the
// chain replays), and with an aggressive fold threshold compaction folds
// the chain into a snapshot that still restarts identically.
func TestPatchPersistRestartAndFold(t *testing.T) {
	dir := t.TempDir()
	open := func(fold int) (*Server, *httptest.Server, *Store) {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.mu.Lock() // the compactor reads it under mu
		st.foldAt = fold
		st.mu.Unlock()
		srv := New(Config{Store: st})
		if _, err := srv.Restore(); err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler()), st
	}

	srv, ts, st := open(1000) // no folding in phase one: chains must replay
	shadow := testMatrix(t, 60, 10, 9)
	uploadDoc(t, ts, "dur", bundling.NewMatrixDoc(shadow), OptionsDoc{Theta: -0.02})
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 3; round++ {
		cells := randCells(rng, shadow, 5)
		buf, _ := jsonMarshal(MutateCorpusRequest{Cells: cells})
		if resp, body := patchBody(t, ts, "dur", "application/json", buf); resp.StatusCode != http.StatusOK {
			t.Fatalf("patch round %d: %d: %s", round, resp.StatusCode, body)
		}
		applyCells(t, shadow, cells)
	}
	want, _ := solveRevenue(t, ts, "dur", "matching")
	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The chain must exist on disk before the restart replays it.
	if n := countRecords(t, dir, "dur"); n < 4 {
		t.Fatalf("expected the snapshot plus 3 chained deltas on disk, found %d records", n)
	}

	srv, ts, st = open(1) // fold every chain at the first compaction pass
	got, _ := solveRevenue(t, ts, "dur", "matching")
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("post-restart revenue %.12f != pre-restart %.12f", got, want)
	}
	direct, err := bundling.NewSolver(shadow, bundling.Options{Theta: -0.02})
	if err != nil {
		t.Fatal(err)
	}
	dwant, err := direct.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-dwant.Revenue) > 1e-9*(1+math.Abs(dwant.Revenue)) {
		t.Fatalf("post-restart revenue %.12f != rebuild %.12f", got, dwant.Revenue)
	}
	cells := randCells(rng, shadow, 3)
	buf, _ := jsonMarshal(MutateCorpusRequest{Cells: cells})
	if resp, body := patchBody(t, ts, "dur", "application/json", buf); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart patch: %d: %s", resp.StatusCode, body)
	}
	applyCells(t, shadow, cells)
	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil { // final compaction folds the chain
		t.Fatal(err)
	}
	if n := countRecords(t, dir, "dur"); n != 1 {
		t.Fatalf("expected the chain folded into one snapshot, found %d records", n)
	}

	srv, ts, st = open(1000)
	defer func() { ts.Close(); srv.Close(); _ = st.Close() }()
	direct, err = bundling.NewSolver(shadow, bundling.Options{Theta: -0.02})
	if err != nil {
		t.Fatal(err)
	}
	dwant, err = direct.Solve(bundling.Matching())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := solveRevenue(t, ts, "dur", "matching"); math.Abs(got-dwant.Revenue) > 1e-9*(1+math.Abs(dwant.Revenue)) {
		t.Fatalf("post-fold revenue %.12f != rebuild %.12f", got, dwant.Revenue)
	}
}

// countRecords counts the chain links of one corpus in the store dir: one
// per snapshot record and one per frame of a delta log.
func countRecords(t testing.TB, dir, id string) int {
	t.Helper()
	entries, err := os.ReadDir(dir + "/corpora")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), id+".") {
			continue
		}
		_, root, ok := parseRecordName(e.Name())
		if !ok || !strings.HasSuffix(e.Name(), logExt) {
			n++
			continue
		}
		buf, err := os.ReadFile(dir + "/corpora/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		n += len(scanLog(buf, id, root))
	}
	return n
}

// TestPatchConcurrentSolves mutates a corpus while solves and evaluates
// hammer it from other goroutines — under -race this is the
// copy-on-write/session-swap thread-safety proof at the serving layer.
func TestPatchConcurrentSolves(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shadow := testMatrix(t, 80, 12, 11)
	uploadDoc(t, ts, "conc", bundling.NewMatrixDoc(shadow), OptionsDoc{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					solveRevenue(t, ts, "conc", "greedy")
				} else {
					resp, body := postJSON(t, ts, "/v1/corpora/conc/evaluate", `{"offers":[[0,1],[2,3]]}`)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("evaluate: %d: %s", resp.StatusCode, body)
						return
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 6; round++ {
		cells := randCells(rng, shadow, 4)
		buf, _ := jsonMarshal(MutateCorpusRequest{Cells: cells})
		resp, body := patchBody(t, ts, "conc", "application/json", buf)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("patch round %d: %d: %s", round, resp.StatusCode, body)
		}
		applyCells(t, shadow, cells)
	}
	close(stop)
	wg.Wait()
	direct, err := bundling.NewSolver(shadow, bundling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Solve(bundling.Greedy())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := solveRevenue(t, ts, "conc", "greedy")
	if math.Abs(got-want.Revenue) > 1e-9*(1+math.Abs(want.Revenue)) {
		t.Fatalf("final revenue %.12f != rebuild %.12f", got, want.Revenue)
	}
}
