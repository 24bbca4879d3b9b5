package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bundling"
)

// memFS is an in-memory storeFS for crash and fault tests. A file keeps the
// bytes it holds now and the bytes its last Sync made durable; a directory
// keeps its entries now and as its last SyncDir left them. image builds the
// file system a crash at this moment could leave behind. Directories
// themselves (MkdirAll) are durable at once.
type memFS struct {
	mu     sync.Mutex
	dirs   map[string]*memDir
	counts map[string]int // calls by operation
	// fault, when set, is asked before every call; an error fails the call
	// (a failing write stores half its bytes first, a torn write).
	fault func(op, name string) error
	// crashAt > 0 crashes the file system after that many state-changing
	// calls: every later call fails and changes nothing.
	crashAt, changes int
	crashed          bool
	// afterRename, when set, runs after every successful Rename, outside
	// the file system's lock: a history's hook into the middle of a store
	// call.
	afterRename func(newpath string)
}

type memDir struct{ now, synced map[string]*memNode }

type memNode struct{ data, synced []byte }

type memFile struct {
	fs   *memFS
	name string
	node *memNode
}

var (
	errCrashed  = errors.New("memfs: crashed")
	errInjected = errors.New("memfs: injected fault")
)

func newMemFS() *memFS { return &memFS{dirs: map[string]*memDir{}, counts: map[string]int{}} }

// call books one call of op on name under m.mu: it counts the call, fails
// it after a crash or by the fault hook, and crashes the file system once
// the call completes as the crashAt-th state change.
func (m *memFS) call(op, name string) (done func(), err error) {
	if m.crashed {
		return nil, errCrashed
	}
	m.counts[op]++
	if m.fault != nil {
		if err := m.fault(op, name); err != nil {
			return nil, err
		}
	}
	return func() {
		if m.changes++; m.crashAt > 0 && m.changes >= m.crashAt {
			m.crashed = true
		}
	}, nil
}

func (m *memFS) dir(name string) (*memDir, string, error) {
	d := m.dirs[filepath.Dir(name)]
	if d == nil {
		return nil, "", &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return d, filepath.Base(name), nil
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return errCrashed
	}
	for d := filepath.Clean(dir); m.dirs[d] == nil; d = filepath.Dir(d) {
		m.dirs[d] = &memDir{now: map[string]*memNode{}, synced: map[string]*memNode{}}
	}
	return nil
}

func (m *memFS) OpenFile(name string, flag int) (storeFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	done, err := m.call("open", name)
	if err != nil {
		return nil, err
	}
	d, base, err := m.dir(name)
	if err != nil {
		return nil, err
	}
	n := d.now[base]
	if n == nil {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		n = &memNode{}
		d.now[base] = n
		m.counts["create"]++
	}
	if flag&os.O_TRUNC != 0 {
		n.data = nil
	}
	done()
	return &memFile{fs: m, name: name, node: n}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.call("read", name); err != nil {
		return nil, err
	}
	d, base, err := m.dir(name)
	if err != nil {
		return nil, err
	}
	n := d.now[base]
	if n == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return slices.Clone(n.data), nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.call("readdir", dir); err != nil {
		return nil, err
	}
	d := m.dirs[filepath.Clean(dir)]
	if d == nil {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	var out []fs.DirEntry
	for _, name := range slices.Sorted(maps.Keys(d.now)) {
		out = append(out, fs.FileInfoToDirEntry(memInfo{name, int64(len(d.now[name].data))}))
	}
	return out, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	if err := m.rename(oldpath, newpath); err != nil {
		return err
	}
	if m.afterRename != nil {
		m.afterRename(newpath)
	}
	return nil
}

func (m *memFS) rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	done, err := m.call("rename", newpath)
	if err != nil {
		return err
	}
	od, obase, err := m.dir(oldpath)
	if err != nil {
		return err
	}
	nd, nbase, err := m.dir(newpath)
	if err != nil {
		return err
	}
	n := od.now[obase]
	if n == nil {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(od.now, obase)
	nd.now[nbase] = n
	done()
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	done, err := m.call("remove", name)
	if err != nil {
		return err
	}
	d, base, err := m.dir(name)
	if err != nil {
		return err
	}
	if d.now[base] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(d.now, base)
	done()
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	done, err := m.call("syncdir", dir)
	if err != nil {
		return err
	}
	d := m.dirs[filepath.Clean(dir)]
	if d == nil {
		return &fs.PathError{Op: "sync", Path: dir, Err: fs.ErrNotExist}
	}
	d.synced = maps.Clone(d.now)
	done()
	return nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	done, err := f.fs.call("write", f.name)
	n := len(p)
	if errors.Is(err, errInjected) {
		n = len(p) / 2 // a torn write
	} else if err != nil {
		return 0, err
	}
	if end := int(off) + n; end > len(f.node.data) {
		f.node.data = append(f.node.data, make([]byte, end-len(f.node.data))...)
	}
	copy(f.node.data[off:], p[:n])
	if err != nil {
		return n, err
	}
	done()
	return n, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	done, err := f.fs.call("sync", f.name)
	if err != nil {
		return err
	}
	f.node.synced = slices.Clone(f.node.data)
	done()
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	done, err := f.fs.call("truncate", f.name)
	if err != nil {
		return err
	}
	if int(size) <= len(f.node.data) {
		f.node.data = f.node.data[:size]
	} else {
		f.node.data = append(f.node.data, make([]byte, int(size)-len(f.node.data))...)
	}
	done()
	return nil
}

func (f *memFile) Close() error { return nil }

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// The crash variants of a file: it keeps its synced bytes plus none, half
// or all of the bytes written since.
const (
	keepNone = iota
	keepHalf
	keepAll
)

// image is the file system a crash now could leave: every file keeps its
// synced bytes plus none, half or all of its unsynced ones (keep), and
// every directory's unsynced changes are dropped or kept (keepDirs).
func (m *memFS) image(keep int, keepDirs bool) *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := newMemFS()
	for path, d := range m.dirs {
		entries := d.synced
		if keepDirs {
			entries = d.now
		}
		nd := &memDir{now: map[string]*memNode{}}
		for name, n := range entries {
			data := n.synced
			if keep != keepNone {
				p := 0 // the longest prefix the current bytes share with the synced ones
				for p < len(n.data) && p < len(n.synced) && n.data[p] == n.synced[p] {
					p++
				}
				data = n.data
				if keep == keepHalf {
					data = n.data[:p+(len(n.data)-p)/2]
				}
			}
			data = slices.Clone(data)
			nd.now[name] = &memNode{data: data, synced: data}
		}
		nd.synced = maps.Clone(nd.now)
		out.dirs[path] = nd
	}
	return out
}

// crashCorpus is the model of one persisted corpus.
type crashCorpus struct {
	gen, entries int
	tenant       string
	created      time.Time
	doc          *bundling.MatrixDoc
}

// crashModel is the model of a store: its live corpora and, per ID, the
// highest generation the store acknowledged.
type crashModel struct {
	live  map[string]crashCorpus
	acked map[string]int
}

func (m crashModel) clone() crashModel {
	return crashModel{live: maps.Clone(m.live), acked: maps.Clone(m.acked)}
}

// fingerprint renders a corpus's state for comparison.
func (c crashCorpus) fingerprint(id string) string {
	return fmt.Sprintf("%s: g%d entries=%d tenant=%q created=%d matrix=%v", id, c.gen, c.entries, c.tenant, c.created.UnixNano(), *c.doc)
}

// fingerprint renders the model's live corpora.
func (m crashModel) fingerprint() string {
	var lines []string
	for _, id := range slices.Sorted(maps.Keys(m.live)) {
		lines = append(lines, m.live[id].fingerprint(id))
	}
	return strings.Join(lines, "\n")
}

// storeFingerprint renders a store's live corpora as Catalog and LiveRecord
// report them: generation, entry count, owner and matrix.
func storeFingerprint(st *Store) (string, error) {
	live, _ := st.Catalog()
	var lines []string
	for _, id := range slices.Sorted(maps.Keys(live)) {
		info := live[id]
		rec, ok := st.LiveRecord(id)
		if !ok {
			return "", fmt.Errorf("%s: catalog lists g%d, LiveRecord loads nothing", id, info.Version)
		}
		if rec.Generation != info.Version || rec.Entries != info.Entries || rec.Tenant != info.Tenant {
			return "", fmt.Errorf("%s: catalog g%d entries=%d tenant=%q, LiveRecord g%d entries=%d tenant=%q",
				id, info.Version, info.Entries, info.Tenant, rec.Generation, rec.Entries, rec.Tenant)
		}
		w, err := rec.Matrix.Matrix()
		if err != nil {
			return "", err
		}
		c := crashCorpus{gen: info.Version, entries: info.Entries, tenant: info.Tenant, created: info.CreatedAt, doc: bundling.NewMatrixDoc(w)}
		lines = append(lines, c.fingerprint(id))
	}
	return strings.Join(lines, "\n"), nil
}

// crashStep is one step of a crash history: a store call on st, whose file
// system is mfs.
type crashStep func(st *Store, mfs *memFS) error

// crashScript is the history TestStoreCrashPoints crashes, run with the
// background compactor stopped so that every crash point is reproducible:
// an upload; 20 PATCHes, with a compaction pass after the 16th that folds
// the log while the 17th lands between the fold's snapshot and its log
// hand-over; a second corpus and a PATCH of it; a delete, a re-upload of
// the deleted ID and a PATCH of it; a compaction pass; Close. It returns
// the steps and the model after each: models[0] is the empty store,
// models[i+1] the store after step i.
func crashScript() (steps []crashStep, models []crashModel) {
	rng := rand.New(rand.NewSource(5))
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	model := crashModel{live: map[string]crashCorpus{}, acked: map[string]int{}}
	models = append(models, model.clone())
	shadow := map[string]*bundling.Matrix{}
	step := func(f crashStep) {
		steps = append(steps, f)
		models = append(models, model.clone())
	}
	upload := func(id, tenant string, gen int) {
		w := bundling.NewMatrix(6, 5)
		for u := 0; u < 6; u++ {
			for i := 0; i < 5; i++ {
				if rng.Intn(2) == 0 {
					w.MustSet(u, i, float64(1+rng.Intn(20)))
				}
			}
		}
		rec := CorpusRecord{ID: id, Tenant: tenant, Generation: gen, CreatedAt: created, Matrix: bundling.NewMatrixDoc(w), Entries: w.Entries()}
		shadow[id] = w
		model.live[id] = crashCorpus{gen: gen, entries: w.Entries(), tenant: tenant, created: created, doc: bundling.NewMatrixDoc(w)}
		model.acked[id] = max(model.acked[id], gen)
		step(func(st *Store, _ *memFS) error { return st.Put(rec) })
	}
	// delta draws a PATCH of id onto the model and returns its record.
	delta := func(id string) CorpusRecord {
		c, w := model.live[id], shadow[id]
		cells := make([]bundling.DeltaCell, 1+rng.Intn(3))
		for k := range cells {
			cells[k] = bundling.DeltaCell{Consumer: rng.Intn(6), Item: rng.Intn(5), Value: float64(1 + rng.Intn(20))}
			if rng.Intn(3) == 0 {
				cells[k].Value, cells[k].Delete = 0, true
			}
		}
		for _, cell := range cells {
			if cell.Delete {
				_ = w.Delete(cell.Consumer, cell.Item)
			} else {
				w.MustSet(cell.Consumer, cell.Item, cell.Value)
			}
		}
		rec := CorpusRecord{ID: id, Generation: c.gen + 1, BaseGeneration: c.gen, Cells: cells, Entries: w.Entries()}
		c.gen, c.entries, c.doc = c.gen+1, w.Entries(), bundling.NewMatrixDoc(w)
		model.live[id] = c
		model.acked[id] = c.gen
		return rec
	}
	patch := func(id string) {
		rec := delta(id)
		step(func(st *Store, _ *memFS) error { return st.PutDelta(rec) })
	}
	upload("a", "alice", 1)
	for i := 0; i < defaultFoldAt; i++ {
		patch("a")
	}
	head := model.live["a"].gen
	mid := delta("a")
	step(func(st *Store, mfs *memFS) error {
		var err error
		fired := false
		mfs.afterRename = func(path string) {
			if path == st.recordPath("a", head) && !fired {
				fired = true
				err = st.PutDelta(mid)
			}
		}
		defer func() { mfs.afterRename = nil }()
		if cerr := st.compactNow(); cerr != nil || err != nil {
			return errors.Join(cerr, err)
		}
		if !fired {
			return errors.New("the compaction pass folded no log")
		}
		return nil
	})
	for i := 0; i < 3; i++ {
		patch("a")
	}
	upload("b", "", 1)
	patch("b")
	gen := model.live["a"].gen
	delete(model.live, "a")
	step(func(st *Store, _ *memFS) error { return st.Delete("a", gen) })
	upload("a", "bob", gen+1)
	patch("a")
	step(func(st *Store, _ *memFS) error { return st.compactNow() })
	step(func(st *Store, _ *memFS) error { return st.Close() })
	return steps, models
}

// stopCompactor stops st's background compactor; Close still runs the final
// pass.
func stopCompactor(st *Store) {
	close(st.closed)
	st.wg.Wait()
	st.closed = make(chan struct{})
}

// checkReopened opens a store on a crash image and checks it against the
// models it may equal: its corpora, a counter no lower than any
// acknowledged generation, and a chain that still takes a PATCH.
func checkReopened(t *testing.T, label string, img *memFS, allowed []crashModel) {
	t.Helper()
	st, err := openStore("data", img)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	got, err := storeFingerprint(st)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var match *crashModel
	for i := range allowed {
		if allowed[i].fingerprint() == got {
			match = &allowed[i]
			break
		}
	}
	if match == nil {
		var want []string
		for _, m := range allowed {
			want = append(want, m.fingerprint())
		}
		t.Fatalf("%s: reopened store\n%s\nwant one of\n%s", label, got, strings.Join(want, "\n--- or\n"))
	}
	// Replay truncated every log at its last good frame.
	st.mu.Lock()
	chains := slices.Collect(maps.Values(st.chains))
	st.mu.Unlock()
	for _, c := range chains {
		c.mu.Lock()
		buf, err := img.ReadFile(st.logPath(c.id, c.root))
		if err == nil && int64(len(buf)) != c.size {
			t.Errorf("%s: the log of %s holds %d bytes after replay, its good frames %d", label, c.id, len(buf), c.size)
		}
		c.mu.Unlock()
	}
	_, gens := st.Catalog()
	for id, gen := range allowed[0].acked {
		if gens[id] < gen {
			t.Fatalf("%s: generation counter of %s reads %d after acknowledging %d", label, id, gens[id], gen)
		}
	}
	// The chain must still take a PATCH: a torn tail was truncated.
	live, _ := st.Catalog()
	for _, id := range slices.Sorted(maps.Keys(live)) {
		c := match.live[id]
		rec := CorpusRecord{ID: id, Generation: gens[id] + 1, BaseGeneration: c.gen,
			Cells: []bundling.DeltaCell{{Consumer: 0, Item: 0, Value: 21}}, Entries: c.entries}
		w, err := c.doc.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if w.At(0, 0) == 0 {
			rec.Entries++
		}
		if err := st.PutDelta(rec); err != nil {
			t.Fatalf("%s: PATCH of %s after reopening: %v", label, id, err)
		}
		if got, ok := st.LiveRecord(id); !ok || got.Generation != rec.Generation || got.Entries != rec.Entries {
			t.Fatalf("%s: after a PATCH to g%d, %s loads g%d with %d entries (ok %v), want %d entries",
				label, rec.Generation, id, got.Generation, got.Entries, ok, rec.Entries)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
}

// crashVariants names every (file, directory) crash variant.
var crashVariants = []struct {
	name     string
	keep     int
	keepDirs bool
}{
	{"none", keepNone, false}, {"half", keepHalf, false}, {"all", keepAll, false},
	{"none+dirs", keepNone, true}, {"half+dirs", keepHalf, true}, {"all+dirs", keepAll, true},
}

// TestStoreCrashPoints checks the store at every crash point of a history
// and under failed log appends.
func TestStoreCrashPoints(t *testing.T) {
	t.Run("history", testCrashHistory)
	t.Run("failed appends", testFailedAppends)
}

// testCrashHistory crashes the store after every state-changing file
// system call of a history (crashScript) and reopens it under every crash
// variant: each file keeps its synced bytes plus none, half or all of the
// rest, and the directories' unsynced changes are dropped or kept. The
// reopened store must hold the corpora of the last acknowledged step or of
// the one in flight, never anything else: no acknowledged PATCH lost, no
// deleted corpus back, no generation counter behind an acknowledged
// generation.
func testCrashHistory(t *testing.T) {
	steps, models := crashScript()
	points := 0
	for k := 1; ; k++ {
		mfs := newMemFS()
		mfs.crashAt = k
		st, err := openStore("data", mfs)
		if err != nil {
			t.Fatalf("crash point %d: open: %v", k, err)
		}
		stopCompactor(st)
		acked, closed := -1, false
		for i, step := range steps {
			closed = i == len(steps)-1
			if err := step(st, mfs); err != nil {
				if !errors.Is(err, errCrashed) {
					t.Fatalf("crash point %d: step %d: %v", k, i, err)
				}
				break
			}
			acked = i
		}
		if !closed {
			_ = st.Close() // stops the compactor; the crashed disk takes nothing
		}
		mfs.mu.Lock()
		crashed := mfs.crashed
		mfs.mu.Unlock()
		if !crashed {
			if acked != len(steps)-1 {
				t.Fatalf("crash point %d: step %d failed without a crash", k, acked+1)
			}
			break
		}
		points++
		allowed := models[acked+1 : min(acked+3, len(models))]
		for _, v := range crashVariants {
			checkReopened(t, fmt.Sprintf("crash after call %d (step %d acknowledged), %s", k, acked, v.name), mfs.image(v.keep, v.keepDirs), allowed)
		}
	}
	if points < len(steps) {
		t.Fatalf("the history crashed at %d points, fewer than its %d steps", points, len(steps))
	}
	t.Logf("%d crash points × %d variants", points, len(crashVariants))
}

// testFailedAppends: a PATCH whose log write or fsync fails answers an
// error and its frame never survives a crash, under any variant; when the
// truncate that undoes it fails too, the next append truncates first (and
// fails while it cannot), so its frame is gone once a later PATCH is
// acknowledged.
func testFailedAppends(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fail      []string // operations on the log that fail once during the bad PATCH
		stuck     bool     // the truncate still fails on the next PATCH
		truncates int      // truncates the next PATCH makes first
	}{
		{name: "write", fail: []string{"write"}},
		{name: "fsync", fail: []string{"sync"}},
		{name: "fsync and truncate", fail: []string{"sync", "truncate"}, truncates: 1},
		{name: "fsync and truncate, twice", fail: []string{"sync", "truncate"}, stuck: true, truncates: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mfs := newMemFS()
			st, err := openStore("data", mfs)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			w := testMatrix(t, 6, 5, 3)
			if err := st.Put(CorpusRecord{ID: "a", Generation: 1, Matrix: bundling.NewMatrixDoc(w), Entries: w.Entries()}); err != nil {
				t.Fatal(err)
			}
			patch := func(gen, base int, val float64) error {
				entries := w.Entries()
				if w.At(1, 1) == 0 {
					entries++
				}
				return st.PutDelta(CorpusRecord{ID: "a", Generation: gen, BaseGeneration: base,
					Cells: []bundling.DeltaCell{{Consumer: 1, Item: 1, Value: val}}, Entries: entries})
			}
			if err := patch(2, 1, 7); err != nil {
				t.Fatal(err)
			}
			w.MustSet(1, 1, 7)
			want := crashModel{live: map[string]crashCorpus{"a": {gen: 2, entries: w.Entries(), doc: bundling.NewMatrixDoc(w)}}, acked: map[string]int{"a": 2}}
			// failing fails the first call of each of ops on the log.
			failing := func(ops ...string) func(op, name string) error {
				return func(op, name string) error {
					if i := slices.Index(ops, op); i >= 0 && strings.HasSuffix(name, logExt) {
						ops = slices.Delete(ops, i, i+1)
						return errInjected
					}
					return nil
				}
			}
			mfs.mu.Lock()
			mfs.fault = failing(tc.fail...)
			mfs.mu.Unlock()
			if err := patch(3, 2, 9); err == nil {
				t.Fatal("a PATCH whose log append failed was acknowledged")
			}
			if live, _ := st.Catalog(); live["a"].Version != 2 {
				t.Fatalf("after the failed PATCH the catalog lists g%d, want g2", live["a"].Version)
			}
			if len(tc.fail) == 1 {
				for _, v := range crashVariants {
					checkReopened(t, "after the failed PATCH, "+v.name, mfs.image(v.keep, v.keepDirs), []crashModel{want})
				}
			}
			if tc.stuck {
				mfs.mu.Lock()
				mfs.fault = failing("truncate")
				writes := mfs.counts["write"]
				mfs.mu.Unlock()
				if err := patch(4, 2, 11); err == nil {
					t.Fatal("an append over an untruncated failed frame was acknowledged")
				}
				mfs.mu.Lock()
				if mfs.counts["write"] != writes {
					t.Error("an append that could not truncate first wrote its frame anyway")
				}
				mfs.mu.Unlock()
			}
			mfs.mu.Lock()
			mfs.fault = nil
			truncates := mfs.counts["truncate"]
			mfs.mu.Unlock()
			if err := patch(5, 2, 13); err != nil {
				t.Fatalf("the PATCH after the failed one: %v", err)
			}
			mfs.mu.Lock()
			if got := mfs.counts["truncate"] - truncates; got != tc.truncates {
				t.Errorf("the PATCH after the failed one truncated %d times, want %d", got, tc.truncates)
			}
			mfs.mu.Unlock()
			w.MustSet(1, 1, 13)
			want.live["a"] = crashCorpus{gen: 5, entries: w.Entries(), doc: bundling.NewMatrixDoc(w)}
			want.acked["a"] = 5
			for _, v := range crashVariants {
				checkReopened(t, "after the next PATCH, "+v.name, mfs.image(v.keep, v.keepDirs), []crashModel{want})
			}
		})
	}
}

// TestPatchCostsOneFsync: once a persisted corpus has its delta log, a
// PATCH costs the disk one write and one fsync — no rename, no directory
// sync, no manifest write — and its persist span says so.
func TestPatchCostsOneFsync(t *testing.T) {
	mfs := newMemFS()
	st, err := openStore("data", mfs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	uploadDoc(t, ts, "c", bundling.NewMatrixDoc(testMatrix(t, 40, 8, 4)), OptionsDoc{})
	patch := func(val float64) {
		t.Helper()
		body := fmt.Sprintf(`{"cells":[{"consumer":1,"item":2,"value":%g},{"consumer":3,"item":4,"value":%g}]}`, val, val+1)
		if resp, text := patchBody(t, ts, "c", "application/json", []byte(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("patch: %d: %s", resp.StatusCode, text)
		}
	}
	patch(5) // creates the log
	mfs.mu.Lock()
	before := maps.Clone(mfs.counts)
	mfs.mu.Unlock()
	patch(6)
	mfs.mu.Lock()
	after := maps.Clone(mfs.counts)
	mfs.mu.Unlock()
	for _, op := range []string{"open", "create", "write", "sync", "syncdir", "rename", "remove", "truncate"} {
		want := 0
		if op == "write" || op == "sync" {
			want = 1
		}
		if got := after[op] - before[op]; got != want {
			t.Errorf("a steady-state PATCH made %d %s calls, want %d", got, op, want)
		}
	}

	_, body := getBody(t, ts, "/debug/traces?limit=1")
	var tl TracesResponse
	if err := decodeString(body, &tl); err != nil {
		t.Fatal(err)
	}
	tags := map[string]string{}
	for _, sp := range tl.Traces[0].Spans {
		if sp.Name == "persist" {
			for _, tag := range sp.Tags {
				tags[tag.Key] = tag.Value
			}
		}
	}
	if tags["fsyncs"] != "1" || tags["bytes"] == "" || tags["bytes"] == "0" {
		t.Errorf("persist span tags %v, want fsyncs 1 and the bytes appended", tags)
	}
}

// TestStoreReplayStopsAtBadFrame: boot replays a log up to the first frame
// that is short, fails its CRC, does not decode or does not follow the
// previous generation (the first frame must follow the root), lists the
// corpus at the last good frame and truncates the log there.
func TestStoreReplayStopsAtBadFrame(t *testing.T) {
	w := testMatrix(t, 6, 5, 2)
	frame := func(base, gen int) []byte {
		return encodeFrame(CorpusRecord{ID: "a", Generation: gen, BaseGeneration: base,
			Cells: []bundling.DeltaCell{{Consumer: 0, Item: gen % 5, Value: float64(gen)}}, Entries: 100 + gen})
	}
	good := slices.Concat(frame(1, 2), frame(2, 4))
	for _, tc := range []struct {
		name string
		log  []byte
		head int
	}{
		{"clean", good, 4},
		{"short header", slices.Concat(good, frame(4, 5)[:5]), 4},
		{"short payload", slices.Concat(good, frame(4, 5)[:20]), 4},
		{"crc", slices.Concat(good, func() []byte { f := frame(4, 5); f[len(f)-1] ^= 1; return f }()), 4},
		{"undecodable", slices.Concat(good, func() []byte {
			f := frame(4, 5)
			f[frameHeader+frameFixed] ^= 0xff // the envelope's magic
			binary.LittleEndian.PutUint32(f[4:], crc32.Checksum(f[frameHeader:], crcTable))
			return f
		}()), 4},
		{"base skips", slices.Concat(good, frame(3, 5), frame(5, 6)), 4},
		{"first base not the root", slices.Concat(frame(2, 3), frame(3, 4)), 1},
		{"generation goes back", slices.Concat(good, frame(4, 4)), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mfs := newMemFS()
			st, err := openStore("data", mfs)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(CorpusRecord{ID: "a", Generation: 1, Matrix: bundling.NewMatrixDoc(w), Entries: w.Entries()}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			path := st.logPath("a", 1)
			f, err := mfs.OpenFile(path, os.O_WRONLY|os.O_CREATE)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(tc.log, 0); err != nil {
				t.Fatal(err)
			}
			st, err = openStore("data", mfs)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			live, gens := st.Catalog()
			wantEntries := w.Entries()
			if tc.head > 1 {
				wantEntries = 100 + tc.head
			}
			if got := live["a"]; got.Version != tc.head || got.Entries != wantEntries || gens["a"] != tc.head {
				t.Fatalf("replayed a as g%d with %d entries (counter %d), want g%d with %d", got.Version, got.Entries, gens["a"], tc.head, wantEntries)
			}
			buf, err := mfs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(scanLog(tc.log, "a", 1)); len(scanLog(buf, "a", 1)) != want || int64(len(buf)) != st.chains["a"].size {
				t.Errorf("the log holds %d bytes after replay; want its %d good frames only", len(buf), want)
			}
		})
	}
}

// TestStoreReclaimsCrashTemps: a crash inside an upload's writeAtomic, after
// the temp write and before the rename, leaves the snapshot's temp file on
// disk. The next open reclaims it, so DiskBytes counts none, and an upload
// and a Close after it leave none. In a running store a compaction pass
// leaves every temp file alone, above the root or below it: each belongs to
// a write in flight, and Put lets an older re-upload land after a newer one.
func TestStoreReclaimsCrashTemps(t *testing.T) {
	mfs := newMemFS()
	st, err := openStore("data", mfs)
	if err != nil {
		t.Fatal(err)
	}
	stopCompactor(st)
	w := bundling.NewMatrix(4, 3)
	w.MustSet(0, 0, 5)
	w.MustSet(1, 2, 7)
	rec := func(gen int) CorpusRecord {
		return CorpusRecord{ID: "a", Generation: gen, Matrix: bundling.NewMatrixDoc(w), Entries: w.Entries()}
	}
	if err := st.Put(rec(1)); err != nil {
		t.Fatal(err)
	}
	mfs.fault = func(op, name string) error {
		if op == "rename" && name == st.recordPath("a", 2) {
			mfs.crashed = true // called under mfs.mu
			return errCrashed
		}
		return nil
	}
	if err := st.Put(rec(2)); !errors.Is(err, errCrashed) {
		t.Fatalf("the generation-2 upload returned %v, want the crash", err)
	}
	_ = st.Close() // the crashed disk takes nothing
	img := mfs.image(keepAll, true)
	temps := func() []string {
		t.Helper()
		entries, err := img.ReadDir(filepath.Join("data", "corpora"))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				out = append(out, e.Name())
			}
		}
		return out
	}
	if got := temps(); len(got) != 1 {
		t.Fatalf("the crash left temp files %v, want the generation-2 snapshot's", got)
	}
	reopen := func() *Store {
		t.Helper()
		st, err := openStore("data", img)
		if err != nil {
			t.Fatal(err)
		}
		stopCompactor(st)
		return st
	}
	st = reopen()
	snap, err := img.ReadFile(st.recordPath("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	man, err := img.ReadFile(st.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.DiskBytes(), int64(len(snap)+len(man)); got != want {
		t.Errorf("DiskBytes after open = %d, want the snapshot and the manifest, %d", got, want)
	}
	if err := st.Put(rec(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := temps(); len(got) != 0 {
		t.Fatalf("temp files %v remain after an upload and Close", got)
	}

	st = reopen()
	defer st.Close()
	for _, gen := range []int{2, 4} { // an older re-upload's and a newer one's
		f, err := img.OpenFile(st.recordPath("a", gen)+".tmp", os.O_WRONLY|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("in flight"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.compactNow(); err != nil {
		t.Fatal(err)
	}
	if got := temps(); len(got) != 2 {
		t.Fatalf("a compaction pass left temp files %v, want both writes in flight", got)
	}
}
