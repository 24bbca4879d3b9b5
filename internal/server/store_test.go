package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bundling"
)

// testDoc builds a tiny MatrixDoc with a recognizable entry value.
func testDoc(val float64) *bundling.MatrixDoc {
	w := bundling.NewMatrix(2, 2)
	w.MustSet(0, 0, val)
	w.MustSet(1, 1, val/2)
	return bundling.NewMatrixDoc(w)
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rec := CorpusRecord{
		ID:         "shop",
		Tenant:     "alice",
		Generation: 1,
		CreatedAt:  time.Now().UTC().Truncate(time.Second),
		Options:    OptionsDoc{Strategy: "mixed", Theta: -0.05},
		Matrix:     testDoc(10),
	}
	if err := st.Put(rec); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if n := st2.Len(); n != 1 {
		t.Fatalf("reopened store holds %d live corpora, want 1", n)
	}
	got, ok := st2.LiveRecord("shop")
	if !ok {
		t.Fatal("live record of shop did not load")
	}
	if got.ID != "shop" || got.Tenant != "alice" || got.Generation != 1 {
		t.Errorf("record = %+v", got)
	}
	if got.Options.Strategy != "mixed" || got.Options.Theta != -0.05 {
		t.Errorf("options = %+v", got.Options)
	}
	if len(got.Matrix.Entries) != 2 || got.Matrix.Entries[0][2] != 10 {
		t.Errorf("matrix = %+v", got.Matrix)
	}
	if !got.CreatedAt.Equal(rec.CreatedAt) {
		t.Errorf("created_at %v, want %v", got.CreatedAt, rec.CreatedAt)
	}
}

func TestStoreGenerationsSurviveDelete(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for gen := 1; gen <= 3; gen++ {
		if err := st.Put(CorpusRecord{ID: "c", Generation: gen, Matrix: testDoc(float64(gen))}); err != nil {
			t.Fatalf("put gen %d: %v", gen, err)
		}
	}
	if err := st.Delete("c", 3); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("live = %d after delete", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if rec, ok := st2.LiveRecord("c"); ok || st2.Len() != 0 {
		t.Errorf("deleted corpus restored: %+v", rec)
	}
	// The generation counter must survive the delete, so a re-created ID
	// continues its sequence.
	if _, gens := st2.Catalog(); gens["c"] != 3 {
		t.Errorf("generations[c] = %d, want 3", gens["c"])
	}
}

func TestStoreDeleteGenerationAware(t *testing.T) {
	// A delete that raced a newer upload must not un-persist the upload:
	// the handler evicted generation 1, but generation 2 is already durable
	// (and acknowledged), so the delete is a no-op.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for gen := 1; gen <= 2; gen++ {
		if err := st.Put(CorpusRecord{ID: "c", Tenant: "alice", Generation: gen, Matrix: testDoc(float64(gen))}); err != nil {
			t.Fatalf("put gen %d: %v", gen, err)
		}
	}
	if err := st.Delete("c", 1); err != nil {
		t.Fatalf("stale delete: %v", err)
	}
	if rec, ok := st.LiveRecord("c"); !ok || rec.Generation != 2 {
		t.Fatalf("stale delete removed the newer generation: %+v, %v", rec, ok)
	}
	if live, _ := st.Catalog(); live["c"].Tenant != "alice" {
		t.Errorf("catalog owner = %q; want alice", live["c"].Tenant)
	}
	if err := st.Delete("c", 2); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok := st.LiveRecord("c"); ok {
		t.Error("corpus live after matching-generation delete")
	}
	if live, _ := st.Catalog(); len(live) != 0 {
		t.Errorf("deleted corpus still in the catalog: %+v", live)
	}
}

func TestStoreDeleteTombstonesInFlightPut(t *testing.T) {
	// A delete can land between a session's install and its persist: the
	// later Put of the tombstoned generation must not resurrect a corpus
	// whose deleter was already told it is gone.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Delete("c", 1); err != nil {
		t.Fatalf("delete ahead of put: %v", err)
	}
	if err := st.Put(CorpusRecord{ID: "c", Generation: 1, Matrix: testDoc(1)}); err != nil {
		t.Fatalf("raced put: %v", err)
	}
	if _, ok := st.LiveRecord("c"); ok {
		t.Fatal("tombstoned generation resurrected by a raced Put")
	}
	// A genuinely newer upload re-claims the ID and clears the tombstone;
	// the generation counter sequences past the tombstone.
	if _, gens := st.Catalog(); gens["c"] != 1 {
		t.Fatalf("generations[c] = %d, want 1 (tombstone raises the counter)", gens["c"])
	}
	if err := st.Put(CorpusRecord{ID: "c", Generation: 2, Matrix: testDoc(2)}); err != nil {
		t.Fatalf("re-claim put: %v", err)
	}
	if rec, ok := st.LiveRecord("c"); !ok || rec.Generation != 2 {
		t.Fatalf("re-claimed corpus = %+v, %v; want generation 2 live", rec, ok)
	}
}

func TestStoreCompactionRemovesSuperseded(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for gen := 1; gen <= 3; gen++ {
		if err := st.Put(CorpusRecord{ID: "c", Generation: gen, Matrix: testDoc(float64(gen))}); err != nil {
			t.Fatalf("put gen %d: %v", gen, err)
		}
	}
	if err := st.Put(CorpusRecord{ID: "gone", Generation: 1, Matrix: testDoc(1)}); err != nil {
		t.Fatalf("put gone: %v", err)
	}
	if err := st.Delete("gone", 1); err != nil {
		t.Fatalf("delete gone: %v", err)
	}
	// Close runs the final synchronous compaction pass.
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "corpora"))
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || !strings.Contains(names[0], ".g3.") {
		t.Errorf("after compaction files = %v, want only generation 3 of %q", names, "c")
	}
}

func TestStorePutLiveMonotonic(t *testing.T) {
	// Two concurrent re-uploads persist outside the registry lock: the
	// older generation's Put may land second and must not roll Live back.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(CorpusRecord{ID: "c", Generation: 2, Matrix: testDoc(2)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(CorpusRecord{ID: "c", Generation: 1, Matrix: testDoc(1)}); err != nil {
		t.Fatal(err)
	}
	rec, ok := st.LiveRecord("c")
	if !ok || rec.Generation != 2 {
		t.Fatalf("LiveRecord = %+v, %v; want generation 2", rec, ok)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("live corpora = %d, want 1", n)
	}
}

func TestStoreRecordNameCollisions(t *testing.T) {
	// Two IDs that sanitize identically must not share a record path.
	a := (&Store{dir: "d"}).recordPath("a/b", 1)
	b := (&Store{dir: "d"}).recordPath("a:b", 1)
	if a == b {
		t.Fatalf("record paths collide: %s", a)
	}
	// Unicode and path separators stay out of the file name.
	name := recordName("ä/корпус:x")
	if strings.ContainsAny(name, "/\\: ") {
		t.Errorf("unsafe record name %q", name)
	}
	if _, _, ok := parseRecordName(recordName("a/b") + ".g7.json"); ok {
		t.Error("parseRecordName took a .json file for a record")
	}
	key, gen, ok := parseRecordName(recordName("a/b") + ".g7.bin")
	if !ok || gen != 7 || key != recordName("a/b") {
		t.Errorf("parseRecordName(bin) = %q %d %v", key, gen, ok)
	}
}

// TestStoreRefusesDeltaRecordChains: a data dir whose manifest still chains
// corpora through per-generation delta records (its "bases" entries) is
// refused with an error that names them, and nothing in it is touched.
func TestStoreRefusesDeltaRecordChains(t *testing.T) {
	dir := t.TempDir()
	corpora := filepath.Join(dir, "corpora")
	if err := os.MkdirAll(corpora, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "manifest.json"): `{"live":{"shop":3,"plain":1},"generations":{"shop":3,"plain":1},"bases":{"shop":1}}`,
	}
	for _, name := range []string{recordName("shop") + ".g1.bin", recordName("shop") + ".g2.bin", recordName("shop") + ".g3.bin", recordName("plain") + ".g1.bin"} {
		files[filepath.Join(corpora, name)] = "record " + name
	}
	for path, body := range files {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenStore(dir)
	if err == nil {
		st.Close()
		t.Fatal("a manifest with delta-record chains opened")
	}
	if !strings.Contains(err.Error(), `"shop"`) || strings.Contains(err.Error(), `"plain"`) {
		t.Errorf("error %q should name the chained corpus shop, and only it", err)
	}
	var left []string
	for _, d := range []string{dir, corpora} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			path := filepath.Join(d, e.Name())
			left = append(left, path)
			if buf, err := os.ReadFile(path); err != nil || string(buf) != files[path] {
				t.Errorf("%s changed: %q, %v", path, buf, err)
			}
		}
	}
	if len(left) != len(files) {
		t.Errorf("the data dir holds %v, want exactly the %d files it had", left, len(files))
	}
}
