package server

import (
	"encoding/json"
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
	if gens := st2.Generations(); gens["c"] != 3 {
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
	if owner, _, _, ok := st.LiveInfo("c"); !ok || owner != "alice" {
		t.Errorf("LiveInfo owner = %q, %v; want alice", owner, ok)
	}
	if err := st.Delete("c", 2); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok := st.LiveRecord("c"); ok {
		t.Error("corpus live after matching-generation delete")
	}
	if _, _, _, ok := st.LiveInfo("c"); ok {
		t.Error("deleted corpus still has an owner")
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
	if gens := st.Generations(); gens["c"] != 1 {
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
	a := (&Store{dir: "d"}).recordPath("a/b", 1, binExt)
	b := (&Store{dir: "d"}).recordPath("a:b", 1, binExt)
	if a == b {
		t.Fatalf("record paths collide: %s", a)
	}
	// Unicode and path separators stay out of the file name.
	name := recordName("ä/корпус:x")
	if strings.ContainsAny(name, "/\\: ") {
		t.Errorf("unsafe record name %q", name)
	}
	key, gen, ok := parseRecordName(recordName("a/b") + ".g7.json")
	if !ok || gen != 7 || key != recordName("a/b") {
		t.Errorf("parseRecordName = %q %d %v", key, gen, ok)
	}
	key, gen, ok = parseRecordName(recordName("a/b") + ".g7.bin")
	if !ok || gen != 7 || key != recordName("a/b") {
		t.Errorf("parseRecordName(bin) = %q %d %v", key, gen, ok)
	}
}

// TestStoreLegacyJSONRecords pins backward compatibility with data
// directories written before the binary codec: their JSON records read back
// unchanged, coexist with binary records written since, and compaction
// reclaims a JSON generation once a binary one supersedes it.
func TestStoreLegacyJSONRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := CorpusRecord{
		ID:         "legacy",
		Tenant:     "alice",
		Generation: 1,
		CreatedAt:  time.Now().UTC().Truncate(time.Second),
		Options:    OptionsDoc{Strategy: "mixed", Theta: -0.05},
		Matrix:     testDoc(9),
		Entries:    2,
	}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Transcribe the record to the pre-codec on-disk form: the same
	// CorpusRecord as a .json file (exactly what the old store wrote).
	binFiles, err := filepath.Glob(filepath.Join(dir, "corpora", "*"+binExt))
	if err != nil || len(binFiles) != 1 {
		t.Fatalf("record files = %v, %v; want one %s record", binFiles, err, binExt)
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	jsonFile := strings.TrimSuffix(binFiles[0], binExt) + jsonExt
	if err := os.WriteFile(jsonFile, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(binFiles[0]); err != nil {
		t.Fatal(err)
	}

	// The JSON-era directory restores unchanged, and a binary record written
	// since coexists with it.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Put(CorpusRecord{ID: "modern", Generation: 1, Matrix: testDoc(4)}); err != nil {
		t.Fatal(err)
	}
	if n := st2.Len(); n != 2 {
		t.Fatalf("mixed dir holds %d live corpora, want 2", n)
	}
	if _, ok := st2.LiveRecord("modern"); !ok {
		t.Fatal("binary record of modern did not load")
	}
	got, ok := st2.LiveRecord("legacy")
	if !ok {
		t.Fatal("JSON record of legacy did not load")
	}
	if got.Tenant != "alice" || got.Generation != 1 || got.Entries != 2 ||
		got.Options.Strategy != "mixed" || got.Options.Theta != -0.05 ||
		!got.CreatedAt.Equal(rec.CreatedAt) {
		t.Errorf("legacy record = %+v", got)
	}
	if len(got.Matrix.Entries) != 2 || got.Matrix.Entries[0][2] != 9 {
		t.Errorf("legacy matrix = %+v", got.Matrix)
	}

	// A binary re-upload supersedes the JSON generation; compaction (the
	// synchronous pass in Close) reclaims the .json file.
	if err := st2.Put(CorpusRecord{ID: "legacy", Tenant: "alice", Generation: 2, Matrix: testDoc(11)}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "corpora", "*"+jsonExt)); len(left) != 0 {
		t.Errorf("superseded JSON records survive compaction: %v", left)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if rec, ok := st3.LiveRecord("legacy"); !ok || rec.Generation != 2 || rec.Matrix.Entries[0][2] != 11 {
		t.Errorf("post-compaction live record = %+v, %v; want generation 2", rec, ok)
	}
}
