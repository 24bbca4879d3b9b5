package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bundling"
	"bundling/internal/codec"
)

// Store is the corpus persistence layer of the serving tier: a snapshot and
// delta-log store under one data directory. It only persists; the serving
// registry is the daemon's corpus catalog and reads the store once, at boot
// (Catalog). Every uploaded corpus is written as a versioned snapshot record
// (the MatrixDoc plus its session metadata), every PATCH as one frame
// appended to its corpus's delta log, and a manifest tracks each corpus's
// chain root (the generation of its snapshot), so a restarted daemon
// restores its catalog exactly — same corpora, same owners, same
// generations. Generations matter beyond bookkeeping: result-cache keys and
// cluster span identities embed them, so continuing the counter across
// restarts is what keeps a post-restart re-upload from ever aliasing a
// pre-restart result.
//
// Layout under the data directory:
//
//	manifest.json            per corpus ID: root generation, owner, entry
//	                         count at the root and listing metadata, plus
//	                         the last generation ever assigned and delete
//	                         tombstones
//	corpora/<name>.g<R>.bin  the snapshot at root generation R, a codec
//	                         record envelope (internal/codec)
//	corpora/<name>.g<R>.log  the delta log of the chain rooted at R: one
//	                         CRC-framed codec delta envelope per PATCH,
//	                         generations R+1 … head in order
//
// An upload writes its snapshot to a temp file, syncs it and renames it into
// place, then rewrites the manifest the same way, so a crash mid-upload
// leaves either the previous generation or the new one. A PATCH appends one
// frame to its corpus's log and fsyncs it — one write and one fsync, no
// rename and no manifest write. Boot reads the manifest and the logs of the
// live corpora, never a snapshot: each log replays up to its first torn or
// out-of-sequence frame and is truncated there, so the catalog lists every
// corpus at its head generation. A background compactor folds a log of
// defaultFoldAt frames into a snapshot at its head generation, moves any
// later frames to the new root's log, and only then points the manifest at
// the new root; it also reclaims the snapshots and logs below a root and
// the files of deleted corpora, which are dead weight on disk until then,
// never served. The temp files of writes a crash cut short are reclaimed at
// the next open.
//
// A Store is safe for concurrent use. No store-wide lock is held across a
// PATCH's fsync: appends to one corpus's log serialize on that corpus's
// chain alone.
type Store struct {
	dir string
	fs  storeFS

	mu     sync.Mutex
	man    manifest
	chains map[string]*chain // one per live corpus (guarded by mu)
	foldAt int               // log length that triggers compaction folding (guarded by mu)

	compactCh chan struct{}
	closed    chan struct{}
	wg        sync.WaitGroup
}

// manifest is the store's durable index.
type manifest struct {
	// Live maps corpus ID to the root generation of its chain: the
	// generation of its snapshot record, whose delta log holds the later
	// generations. IDs absent from Live (but present in Generations) are
	// deleted corpora.
	Live map[string]int `json:"live"`
	// Generations maps corpus ID to the last upload generation ever
	// assigned, surviving deletes — the registry seeds its version counters
	// from it (and from the replayed log heads) so a re-created ID continues
	// its sequence.
	Generations map[string]int `json:"generations"`
	// Owners maps each live corpus ID to its owning tenant (absent =
	// public), so ownership survives a restart.
	Owners map[string]string `json:"owners,omitempty"`
	// Entries maps each live corpus ID to its non-zero WTP entry count at
	// the root — the quota currency of a restored corpus whose log is empty.
	Entries map[string]int `json:"entries,omitempty"`
	// Deleted maps corpus ID to the highest deleted generation: the
	// tombstone that stops the raced Put of that very generation — a delete
	// can land between a session's install and its persist — from
	// resurrecting a corpus the deleter was told is gone. Cleared when a
	// genuinely newer generation goes live.
	Deleted map[string]int `json:"deleted,omitempty"`
	// Meta holds each live corpus's listing-sized metadata, so a restarted
	// daemon lists its corpora without reading their record files (whose
	// matrices can be as large as the upload bound).
	Meta map[string]corpusMeta `json:"meta,omitempty"`
}

// corpusMeta is the listing-sized slice of a corpus record: what
// GET /v1/corpora needs without the matrix payload.
type corpusMeta struct {
	Consumers int        `json:"consumers"`
	Items     int        `json:"items"`
	CreatedAt time.Time  `json:"created_at"`
	Options   OptionsDoc `json:"options"`
}

// clone deep-copies the manifest. Mutators work on a clone and install it
// only after the rewrite hits disk, so a failed save never leaves the
// in-memory index claiming state the disk does not hold.
func (m manifest) clone() manifest {
	return manifest{
		Live:        maps.Clone(m.Live),
		Generations: maps.Clone(m.Generations),
		Owners:      maps.Clone(m.Owners),
		Entries:     maps.Clone(m.Entries),
		Deleted:     maps.Clone(m.Deleted),
		Meta:        maps.Clone(m.Meta),
	}
}

// chain is the state of one live corpus's delta chain: the snapshot at root
// and the log frames root+1 … head. root, head, entries and frames change
// only with both chain.mu and Store.mu held, so either lock reads them; the
// log file fields belong to chain.mu alone, which an append holds across
// its fsync.
type chain struct {
	id      string
	root    int // generation of the snapshot the chain starts from
	head    int // generation of the last durable frame; root when there is none
	entries int // WTP entry count at head
	frames  int // frames in the log

	mu      sync.Mutex
	f       storeFile // the open log; nil until an append opens it
	created bool      // the log exists and its directory entry is durable
	size    int64     // the log's good length: the end of head's frame
	dirty   bool      // a failed append left bytes past size that no truncate removed
	retired bool      // an upload or a delete replaced the chain: its log is dead
}

// CorpusRecord is one persisted corpus snapshot: the uploaded matrix plus
// everything the registry needs to rebuild the session it backed.
type CorpusRecord struct {
	ID         string              `json:"id"`
	Tenant     string              `json:"tenant,omitempty"`
	Generation int                 `json:"generation"`
	CreatedAt  time.Time           `json:"created_at"`
	Options    OptionsDoc          `json:"options"`
	Matrix     *bundling.MatrixDoc `json:"matrix"`
	// Entries is the indexed non-zero WTP entry count — the quota currency.
	// The raw doc may hold duplicate or zero-valued cells, so its length can
	// overstate what the session actually indexed.
	Entries int `json:"entries,omitempty"`
	// BaseGeneration and Cells make the record a delta (PutDelta's input):
	// it holds no Matrix, only the mutation cells applied on top of the
	// corpus at BaseGeneration.
	BaseGeneration int                  `json:"base_generation,omitempty"`
	Cells          []bundling.DeltaCell `json:"cells,omitempty"`
}

// OpenStore opens (creating if needed) the store under dir, replays the
// delta logs of its live corpora and starts its background compactor.
// Callers must Close it to flush the final compaction pass. A data dir whose
// manifest still tracks per-generation delta records (the `bases` entries an
// older release wrote) is refused untouched: this store reads only snapshots
// and logs.
func OpenStore(dir string) (*Store, error) { return openStore(dir, osFS{}) }

// openStore is OpenStore on the file system fsys.
func openStore(dir string, fsys storeFS) (*Store, error) {
	s := &Store{
		dir:    dir,
		fs:     fsys,
		foldAt: defaultFoldAt,
		man: manifest{
			Live:        map[string]int{},
			Generations: map[string]int{},
			Owners:      map[string]string{},
			Entries:     map[string]int{},
			Deleted:     map[string]int{},
			Meta:        map[string]corpusMeta{},
		},
		chains:    map[string]*chain{},
		compactCh: make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
	// Unmarshal into the initialized maps: a map the manifest omits (the
	// omitempty ones, when empty) stays allocated.
	buf, err := fsys.ReadFile(s.manifestPath())
	switch {
	case err == nil:
		if err := json.Unmarshal(buf, &s.man); err != nil {
			return nil, fmt.Errorf("store: manifest: %w", err)
		}
		var old struct {
			Bases map[string]int `json:"bases"`
		}
		if err := json.Unmarshal(buf, &old); err == nil && len(old.Bases) > 0 {
			ids := slices.Sorted(maps.Keys(old.Bases))
			return nil, fmt.Errorf("store: %s chains corpora %q through per-generation delta records, which this release does not read; re-upload them with the release that wrote the directory first", s.manifestPath(), ids)
		}
	case errors.Is(err, fs.ErrNotExist):
		// fresh store
	default:
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "corpora")); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.reclaimTemps()
	for id, root := range s.man.Live {
		c, err := s.replay(id, root)
		if err != nil {
			return nil, err
		}
		s.chains[id] = c
	}
	s.wg.Add(1)
	go s.compactor()
	s.kickCompact()
	return s, nil
}

// replay restores the chain of a live corpus from its log: the frames up to
// the first one that is short, fails its CRC, does not decode or does not
// follow the previous frame's generation. The log is truncated there; if
// that fails, the next append truncates first.
func (s *Store) replay(id string, root int) (*chain, error) {
	c := &chain{id: id, root: root, head: root, entries: s.man.Entries[id]}
	path := s.logPath(id, root)
	buf, err := s.fs.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: log of %q: %w", id, err)
	}
	c.created = true
	frames := scanLog(buf, id, root)
	if k := len(frames); k > 0 {
		last := frames[k-1]
		c.head, c.entries, c.frames, c.size = last.gen, last.entries, k, last.end
	}
	if c.size < int64(len(buf)) {
		c.dirty = true
		if f, err := s.fs.OpenFile(path, os.O_WRONLY); err == nil {
			c.f = f
			_ = c.truncate()
			_ = c.closeLog()
		}
	}
	return c, nil
}

// reclaimTemps removes the temp files that a crash inside writeAtomic left
// in the data and records directories. It runs before any writer of this
// store starts, so every temp file is such a leftover. Compaction leaves
// temp files alone: in a running store each belongs to a write in flight,
// of any generation, since Put lets an older re-upload land after a newer
// one.
func (s *Store) reclaimTemps() {
	for _, dir := range []string{s.dir, filepath.Join(s.dir, "corpora")} {
		entries, _ := s.fs.ReadDir(dir)
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), tmpExt) {
				_ = s.fs.Remove(filepath.Join(dir, e.Name())) // a failure leaves it for the next open
			}
		}
	}
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Close stops the background compactor, runs one final synchronous
// compaction pass — the graceful flush the daemon performs on shutdown; it
// folds only the logs that reached the fold length — and closes the open
// logs.
func (s *Store) Close() error {
	close(s.closed)
	s.wg.Wait()
	err := s.compactNow()
	s.mu.Lock()
	chains := slices.Collect(maps.Values(s.chains))
	s.mu.Unlock()
	for _, c := range chains {
		c.mu.Lock()
		err = errors.Join(err, c.closeLog())
		c.mu.Unlock()
	}
	return err
}

// Put durably records one uploaded corpus: the snapshot record first, then
// the manifest pointing at it as the corpus's new chain root. On return the
// corpus survives a crash.
func (s *Store) Put(rec CorpusRecord) error {
	if rec.Matrix == nil {
		return fmt.Errorf("store: record %q has no matrix", rec.ID)
	}
	buf, err := encodeRecordBinary(rec)
	if err != nil {
		return fmt.Errorf("store: encode %q: %w", rec.ID, err)
	}
	if err := s.writeAtomic(s.recordPath(rec.ID, rec.Generation), buf); err != nil {
		return fmt.Errorf("store: write %q: %w", rec.ID, err)
	}
	s.mu.Lock()
	// Live only ever advances: two concurrent re-uploads persist outside
	// the registry lock, so the older generation's Put may land second and
	// must not roll the manifest back behind what memory serves — nor
	// behind a PATCH of the newer one. Nor may it advance past a tombstone:
	// a Delete that raced this Put already told its caller generations
	// through Deleted[id] are gone, and the record of a tombstoned
	// generation is dead on arrival (compaction reclaims it). Owner and
	// entry count follow the generation that wins.
	c := s.chains[rec.ID]
	next := s.man.clone()
	advance := rec.Generation > next.Deleted[rec.ID] && (c == nil || rec.Generation > c.head)
	if advance {
		next.Live[rec.ID] = rec.Generation
		if rec.Tenant == "" {
			delete(next.Owners, rec.ID)
		} else {
			next.Owners[rec.ID] = rec.Tenant
		}
		next.Entries[rec.ID] = rec.Entries
		next.Meta[rec.ID] = corpusMeta{
			Consumers: rec.Matrix.Consumers,
			Items:     rec.Matrix.Items,
			CreatedAt: rec.CreatedAt,
			Options:   rec.Options,
		}
		delete(next.Deleted, rec.ID)
	}
	if rec.Generation > next.Generations[rec.ID] {
		next.Generations[rec.ID] = rec.Generation
	}
	if err := s.saveManifestLocked(next); err != nil {
		s.mu.Unlock()
		return err
	}
	s.man = next
	var retired *chain
	if advance {
		// A full snapshot starts a new chain; the old one's log is dead.
		retired = c
		s.chains[rec.ID] = &chain{id: rec.ID, root: rec.Generation, head: rec.Generation, entries: rec.Entries}
	}
	s.mu.Unlock()
	if retired != nil {
		retired.retire()
	}
	s.kickCompact()
	return nil
}

// defaultFoldAt is the log length at which compaction folds a chain into a
// snapshot: long enough that a burst of PATCHes stays on the cheap append
// path, short enough that boot replay and reloads stay O(1)-ish.
const defaultFoldAt = 16

// PutDelta durably records one corpus mutation: the cells applied on top of
// the corpus at rec.BaseGeneration, appended as one frame to the corpus's
// delta log, without re-writing the matrix or the manifest. Tenant, options
// and creation time are not written, because a PATCH never changes them
// and the chain's snapshot holds them; the frame carries the entry count.
// Same durability contract as Put: on return the mutation survives a crash.
func (s *Store) PutDelta(rec CorpusRecord) error {
	_, err := s.appendDelta(rec)
	return err
}

// appendCost is what one delta append cost the disk: the bytes written and
// the fsyncs issued, directory syncs included.
type appendCost struct{ bytes, fsyncs int }

// appendDelta is PutDelta, reporting what the append cost.
func (s *Store) appendDelta(rec CorpusRecord) (appendCost, error) {
	if rec.Matrix != nil || len(rec.Cells) == 0 {
		return appendCost{}, fmt.Errorf("store: record %q is not a delta", rec.ID)
	}
	if rec.BaseGeneration < 1 || rec.BaseGeneration >= rec.Generation {
		return appendCost{}, fmt.Errorf("store: delta %q generation %d does not follow its base %d",
			rec.ID, rec.Generation, rec.BaseGeneration)
	}
	frame := encodeFrame(rec)
	s.mu.Lock()
	c := s.chains[rec.ID]
	tombstoned := rec.Generation <= s.man.Deleted[rec.ID]
	s.mu.Unlock()
	// Same advance-only rules as Put: a delta whose generation a newer
	// persist or a delete already passed is dead on arrival, not an error.
	// Otherwise the base must be the chain's head — a chain can only extend
	// what the disk holds.
	if c == nil {
		if tombstoned {
			return appendCost{}, nil
		}
		return appendCost{}, fmt.Errorf("store: delta %q bases on generation %d, which is not persisted", rec.ID, rec.BaseGeneration)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired || rec.Generation <= c.head {
		return appendCost{}, nil
	}
	if c.head != rec.BaseGeneration {
		return appendCost{}, fmt.Errorf("store: delta %q bases on generation %d, live is %d",
			rec.ID, rec.BaseGeneration, c.head)
	}
	cost, err := c.append(s.fs, s.logPath(rec.ID, c.root), frame)
	if err != nil {
		return cost, fmt.Errorf("store: append delta %q: %w", rec.ID, err)
	}
	s.mu.Lock()
	c.head, c.entries = rec.Generation, rec.Entries
	c.frames++
	fold := c.frames >= s.foldAt
	s.mu.Unlock()
	if fold {
		s.kickCompact()
	}
	return cost, nil
}

// append writes frame at the log's good length and fsyncs it. The first
// append to a chain creates its log and syncs the directory. A failed write
// or fsync truncates the log back to its good length, so the frame cannot
// come back after a restart; when that truncate fails too, the next append
// truncates before it writes, and fails if it cannot. Callers hold c.mu.
func (c *chain) append(fsys storeFS, path string, frame []byte) (appendCost, error) {
	var cost appendCost
	if c.f == nil {
		flag := os.O_WRONLY
		if !c.created {
			// A leftover from an append that failed before the log was
			// created is stale: start the log afresh.
			flag |= os.O_CREATE | os.O_TRUNC
		}
		f, err := fsys.OpenFile(path, flag)
		if err != nil {
			return cost, err
		}
		c.f = f
		if !c.created {
			cost.fsyncs++
			if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
				_ = c.closeLog()
				return cost, err
			}
			c.created, c.size, c.dirty = true, 0, false
		}
	}
	if c.dirty {
		cost.fsyncs++
		if err := c.truncate(); err != nil {
			return cost, err
		}
	}
	n, err := c.f.WriteAt(frame, c.size)
	cost.bytes = n
	if err == nil {
		cost.fsyncs++
		err = c.f.Sync()
	}
	if err != nil {
		cost.fsyncs++
		_ = c.truncate()
		return cost, err
	}
	c.size += int64(len(frame))
	return cost, nil
}

// truncate cuts the open log back to its good length and syncs the cut,
// recording in dirty whether bytes past it may remain.
func (c *chain) truncate() error {
	err := c.f.Truncate(c.size)
	if err == nil {
		err = c.f.Sync()
	}
	c.dirty = err != nil
	return err
}

// closeLog closes the chain's open log, if any. Callers hold c.mu.
func (c *chain) closeLog() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// retire marks a chain that an upload or a delete replaced and closes its
// log: an append still waiting on the chain finds it retired and writes
// nothing.
func (c *chain) retire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired = true
	_ = c.closeLog()
}

// A log frame is one PATCH: the payload's length and CRC-32C (4 bytes each,
// little-endian), then the payload — the entry count after the PATCH (8
// bytes) and the codec delta envelope of its cells, whose FromVersion and
// ToVersion hold the base and new generations.
const (
	frameHeader = 8
	frameFixed  = 8 // the entry count ahead of the envelope
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame renders a delta record as one log frame.
func encodeFrame(rec CorpusRecord) []byte {
	d := codec.DeltaFromCells(rec.ID, 0, rec.Cells)
	d.FromVersion, d.ToVersion = uint64(rec.BaseGeneration), uint64(rec.Generation)
	env := codec.EncodeDelta(d)
	buf := make([]byte, frameHeader+frameFixed, frameHeader+frameFixed+len(env))
	binary.LittleEndian.PutUint64(buf[frameHeader:], uint64(rec.Entries))
	buf = append(buf, env...)
	payload := buf[frameHeader:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	return buf
}

// logFrame is one decoded frame of a delta log.
type logFrame struct {
	gen, entries int
	cells        []bundling.DeltaCell
	end          int64 // offset just past the frame
}

// scanLog decodes the frames of corpus id's log for the chain rooted at
// root, in order, up to the first frame that is short, fails its CRC, does
// not decode, names another corpus, or does not follow the previous frame's
// generation (the first frame's base must be root). Whatever follows the
// last frame returned is a torn or stale tail.
func scanLog(buf []byte, id string, root int) []logFrame {
	var frames []logFrame
	prev, off := root, 0
	for len(buf)-off >= frameHeader {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n < frameFixed || n > len(buf)-off-frameHeader {
			break
		}
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[off+4:]) {
			break
		}
		entries := int(binary.LittleEndian.Uint64(payload))
		d, err := codec.DecodeDelta(payload[frameFixed:])
		if err != nil || d.ID != id || d.FromVersion != uint64(prev) || int(d.ToVersion) <= prev || entries < 0 {
			break
		}
		off += frameHeader + n
		prev = int(d.ToVersion)
		frames = append(frames, logFrame{gen: prev, entries: entries, cells: d.Cells(), end: int64(off)})
	}
	return frames
}

// readChain materializes a chain: the snapshot at root with its log's
// frames replayed onto it up to head. It also returns the log offset just
// past head's frame (0 when head is the root). Tenant, options and creation
// time come from the snapshot, the entry count from the replayed matrix.
func (s *Store) readChain(id string, root, head int) (CorpusRecord, int64, error) {
	buf, err := s.fs.ReadFile(s.recordPath(id, root))
	if err != nil {
		return CorpusRecord{}, 0, err
	}
	rec, err := decodeRecordBinary(buf)
	if err != nil {
		return CorpusRecord{}, 0, fmt.Errorf("store: snapshot g%d of %q: %w", root, id, err)
	}
	if rec.ID != id || rec.Generation != root {
		return CorpusRecord{}, 0, fmt.Errorf("store: snapshot g%d of %q holds %q at g%d", root, id, rec.ID, rec.Generation)
	}
	if head == root {
		return rec, 0, nil
	}
	log, err := s.fs.ReadFile(s.logPath(id, root))
	if err != nil {
		return CorpusRecord{}, 0, err
	}
	w, err := rec.Matrix.Matrix()
	if err != nil {
		return CorpusRecord{}, 0, fmt.Errorf("store: snapshot g%d of %q: %w", root, id, err)
	}
	for _, fr := range scanLog(log, id, root) {
		for _, c := range fr.cells {
			if c.Delete {
				err = w.Delete(c.Consumer, c.Item)
			} else {
				err = w.Set(c.Consumer, c.Item, c.Value)
			}
			if err != nil {
				return CorpusRecord{}, 0, fmt.Errorf("store: replay g%d of %q: %w", fr.gen, id, err)
			}
		}
		if fr.gen == head {
			rec.Generation, rec.Matrix, rec.Entries = head, bundling.NewMatrixDoc(w), w.Entries()
			return rec, fr.end, nil
		}
	}
	return CorpusRecord{}, 0, fmt.Errorf("store: log of %q ends before generation %d", id, head)
}

// LiveRecord loads the live record of one corpus ID, if any — the source of
// a lazy reload: the snapshot with the log replayed up to the head.
func (s *Store) LiveRecord(id string) (CorpusRecord, bool) {
	// Two attempts: a concurrent compaction can fold the chain and reclaim
	// its files mid-read; the second attempt reads the new root.
	for attempt := 0; attempt < 2; attempt++ {
		s.mu.Lock()
		c := s.chains[id]
		var root, head int
		if c != nil {
			root, head = c.root, c.head
		}
		s.mu.Unlock()
		if c == nil {
			return CorpusRecord{}, false
		}
		if rec, _, err := s.readChain(id, root, head); err == nil && rec.Matrix != nil {
			return rec, true
		}
	}
	return CorpusRecord{}, false
}

// Catalog snapshots the store: the listing metadata of every live
// (persisted, non-deleted) corpus at its head generation, keyed by ID, and
// the last generation ever assigned per ID, deleted IDs included. The
// serving registry fills its catalog from it at boot, and rolls an entry
// back to it after a failed persist, without opening a record file (whose
// matrices can be as large as the upload bound). Stripe and total-WTP
// figures are unknown until a corpus is re-indexed and stay zero.
func (s *Store) Catalog() (live map[string]CorpusInfo, generations map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live = make(map[string]CorpusInfo, len(s.chains))
	generations = maps.Clone(s.man.Generations)
	for id, c := range s.chains {
		meta := s.man.Meta[id]
		live[id] = CorpusInfo{
			ID:        id,
			Version:   c.head,
			Tenant:    s.man.Owners[id],
			Consumers: meta.Consumers,
			Items:     meta.Items,
			Entries:   c.entries,
			Options:   meta.Options,
			CreatedAt: meta.CreatedAt,
		}
		if c.head > generations[id] {
			generations[id] = c.head
		}
	}
	return live, generations
}

// Delete durably removes a corpus from the manifest (its snapshot and log
// are reclaimed by compaction) — but only while its head generation is still
// at most gen, the generation the caller deleted. A concurrent re-upload that
// already persisted a newer generation wins: its durably-acknowledged
// corpus must never be un-persisted by a delete that raced it. The ID's
// generation counter is retained so a later re-upload continues the
// sequence.
func (s *Store) Delete(id string, gen int) error {
	s.mu.Lock()
	c := s.chains[id]
	if c != nil && c.head > gen {
		s.mu.Unlock()
		return nil
	}
	if s.man.Deleted[id] >= gen {
		s.mu.Unlock()
		return nil // already tombstoned through this generation
	}
	next := s.man.clone()
	delete(next.Live, id)
	delete(next.Owners, id)
	delete(next.Entries, id)
	delete(next.Meta, id)
	// Tombstone through gen even when no live entry exists yet: the
	// deleted session's Put may still be in flight, and landing after this
	// delete must not resurrect the generation the caller was told is
	// gone. Raising the generation counter alongside keeps post-restart
	// uploads sequencing past the tombstone.
	next.Deleted[id] = gen
	if gen > next.Generations[id] {
		next.Generations[id] = gen
	}
	if err := s.saveManifestLocked(next); err != nil {
		s.mu.Unlock()
		return err
	}
	s.man = next
	delete(s.chains, id)
	s.mu.Unlock()
	if c != nil {
		c.retire()
	}
	s.kickCompact()
	return nil
}

// DiskBytes sums the size of every file in the data directory and its
// records directory — manifest, snapshots, logs and any not-yet-compacted
// garbage — the source of the bundled_store_disk_bytes gauge.
func (s *Store) DiskBytes() int64 {
	var total int64
	for _, dir := range []string{s.dir, filepath.Join(s.dir, "corpora")} {
		entries, _ := s.fs.ReadDir(dir)
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// Len returns the number of live (persisted, non-deleted) corpora.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chains)
}

// --- internals --------------------------------------------------------------

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }

// The record file extensions: a snapshot is a codec record envelope, a log
// a sequence of frames. writeAtomic writes a file under its name plus tmpExt
// first.
const (
	binExt = ".bin"
	logExt = ".log"
	tmpExt = ".tmp"
)

// recordPath names the snapshot record of (corpus, generation). The name
// keeps a sanitized prefix of the ID for operator readability and appends
// an FNV hash of the full ID so two IDs that sanitize identically cannot
// collide.
func (s *Store) recordPath(id string, gen int) string {
	return filepath.Join(s.dir, "corpora", fmt.Sprintf("%s.g%d%s", recordName(id), gen, binExt))
}

// logPath names the delta log of the chain of corpus id rooted at root.
func (s *Store) logPath(id string, root int) string {
	return filepath.Join(s.dir, "corpora", fmt.Sprintf("%s.g%d%s", recordName(id), root, logExt))
}

// encodeRecordBinary lowers a corpus record to its codec envelope. Options
// stay a JSON blob inside the envelope — they are a few dozen bytes defined
// by this package, not a hot column — while the keys ride the interned
// string table and the matrix rides the columnar encoding.
func encodeRecordBinary(rec CorpusRecord) ([]byte, error) {
	opt, err := json.Marshal(rec.Options)
	if err != nil {
		return nil, err
	}
	return codec.EncodeRecord(&codec.Record{
		ID:          rec.ID,
		Tenant:      rec.Tenant,
		Generation:  rec.Generation,
		CreatedAt:   rec.CreatedAt,
		OptionsJSON: opt,
		Matrix:      codec.MatrixData(*rec.Matrix),
		Entries:     rec.Entries,
	})
}

// decodeRecordBinary parses a codec record envelope back into the store's
// record form.
func decodeRecordBinary(buf []byte) (CorpusRecord, error) {
	cr, err := codec.DecodeRecord(buf)
	if err != nil {
		return CorpusRecord{}, err
	}
	rec := CorpusRecord{
		ID:         cr.ID,
		Tenant:     cr.Tenant,
		Generation: cr.Generation,
		CreatedAt:  cr.CreatedAt,
		Entries:    cr.Entries,
	}
	if len(cr.OptionsJSON) > 0 {
		if err := json.Unmarshal(cr.OptionsJSON, &rec.Options); err != nil {
			return CorpusRecord{}, fmt.Errorf("record options: %w", err)
		}
	}
	doc := bundling.MatrixDoc(cr.Matrix)
	rec.Matrix = &doc
	return rec, nil
}

// recordName renders a corpus ID filesystem-safe.
func recordName(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 48 {
			break
		}
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return fmt.Sprintf("%s.%016x", b.String(), h.Sum64())
}

// saveManifestLocked rewrites the manifest atomically; callers hold s.mu
// and install m as s.man only when the write succeeded.
func (s *Store) saveManifestLocked(m manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := s.writeAtomic(s.manifestPath(), buf); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

// writeAtomic writes buf to path via a synced temp file and a rename, so
// readers (and crashes) see either the old content or the new, never a torn
// write. Every path has one writer at a time (the manifest is written under
// s.mu, a snapshot by its upload or, serialized, by compaction), so the
// temp name derives from the path.
func (s *Store) writeAtomic(path string, buf []byte) error {
	tmp := path + tmpExt
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(buf, 0)
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	// The rename itself is only durable once the directory entry is synced.
	return s.fs.SyncDir(filepath.Dir(path))
}

// kickCompact schedules a compaction pass without blocking.
func (s *Store) kickCompact() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// compactor runs compaction passes in the background until Close.
func (s *Store) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.compactCh:
			_ = s.compactNow()
		case <-s.closed:
			return
		}
	}
}

// fold rewrites chain c as a snapshot at its head generation H and makes H
// the chain's root. It materializes the root plus the frames up to H and
// writes snapshot g<H>.bin; then, under the chain's lock, it copies any
// frames appended past H meanwhile into log g<H>.log and syncs it; only
// then does it point the manifest at root H. A crash at any step leaves
// either the old root with its whole log or the new root with its log.
func (s *Store) fold(c *chain) error {
	s.mu.Lock()
	live := s.chains[c.id] == c
	root, head, entries, frames := c.root, c.head, c.entries, c.frames
	s.mu.Unlock()
	if !live || frames == 0 {
		return nil
	}
	rec, end, err := s.readChain(c.id, root, head)
	if err != nil {
		return err
	}
	buf, err := encodeRecordBinary(rec)
	if err != nil {
		return err
	}
	if err := s.writeAtomic(s.recordPath(c.id, head), buf); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired {
		return nil
	}
	var tail []byte
	if c.size > end {
		log, err := s.fs.ReadFile(s.logPath(c.id, root))
		if err != nil {
			return err
		}
		if int64(len(log)) < c.size {
			return fmt.Errorf("store: log of %q is shorter than its %d good bytes", c.id, c.size)
		}
		tail = log[end:c.size]
	}
	var nf storeFile
	if len(tail) > 0 {
		path := s.logPath(c.id, head)
		if nf, err = s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC); err != nil {
			return err
		}
		if _, err = nf.WriteAt(tail, 0); err == nil {
			err = nf.Sync()
		}
		if err == nil {
			err = s.fs.SyncDir(filepath.Dir(path))
		}
		if err != nil {
			_ = nf.Close()
			return err
		}
	}
	s.mu.Lock()
	if s.chains[c.id] == c { // else an upload or a delete replaced it meanwhile
		next := s.man.clone()
		next.Live[c.id], next.Entries[c.id] = head, entries
		if err = s.saveManifestLocked(next); err == nil {
			s.man, c.root = next, head
			c.frames -= frames
		}
	}
	s.mu.Unlock()
	if c.root != head {
		if nf != nil {
			_ = nf.Close()
		}
		return err
	}
	_ = c.closeLog()
	c.f, c.size, c.created, c.dirty = nf, int64(len(tail)), nf != nil, false
	return nil
}

// compactNow folds the logs that reached the fold length into snapshots,
// then deletes every snapshot and log below its corpus's root or orphaned
// by a delete. It decides per file from the generation in the file name,
// never by "not in the manifest snapshot": an upload writes its snapshot
// before the manifest, so a snapshot-membership rule would race a
// concurrent Put and delete a record the manifest is about to point at.
// Comparing generations is monotonic — a stale snapshot can only
// under-delete, and the next pass finishes the job. Temp files (see
// reclaimTemps) and unrecognized files are left alone. Passes never overlap: they run on the compactor goroutine,
// and once more in Close after it exits.
func (s *Store) compactNow() error {
	s.mu.Lock()
	var due []*chain
	for _, c := range s.chains {
		if c.frames >= s.foldAt {
			due = append(due, c)
		}
	}
	s.mu.Unlock()
	var errs []error
	for _, c := range due {
		if err := s.fold(c); err != nil {
			errs = append(errs, fmt.Errorf("store: fold %q: %w", c.id, err))
		}
	}
	s.mu.Lock()
	roots := make(map[string]int, len(s.chains))
	for id, c := range s.chains {
		roots[recordName(id)] = c.root
	}
	lastGen := make(map[string]int, len(s.man.Generations))
	for id, gen := range s.man.Generations {
		lastGen[recordName(id)] = gen
	}
	s.mu.Unlock()
	dir := filepath.Join(s.dir, "corpora")
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		key, gen, ok := parseRecordName(name)
		if !ok {
			continue
		}
		var dead bool
		if root, isLive := roots[key]; isLive {
			dead = gen < root // below the chain's root: superseded or folded
		} else if last, known := lastGen[key]; known {
			dead = gen <= last // deleted ID; a concurrent re-upload is > last
		}
		if !dead {
			continue
		}
		if err := s.fs.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// parseRecordName splits a snapshot or log file name into its ID key (the
// sanitized prefix plus hash, i.e. recordName(id)) and generation.
func parseRecordName(name string) (key string, gen int, ok bool) {
	base, found := strings.CutSuffix(name, binExt)
	if !found {
		if base, found = strings.CutSuffix(name, logExt); !found {
			return "", 0, false
		}
	}
	i := strings.LastIndex(base, ".g")
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(base[i+2:])
	if err != nil || n < 1 {
		return "", 0, false
	}
	return base[:i], n, true
}

// storeFS is the store's seam over the file system: every call the store
// makes on its data directory goes through it. Production uses osFS; tests
// substitute an in-memory file system that counts calls, injects faults and
// models what a crash keeps.
type storeFS interface {
	MkdirAll(dir string) error
	// OpenFile opens (with os.O_CREATE, creates) a file for writing.
	OpenFile(name string, flag int) (storeFile, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the directory's entries (creates, renames, removes)
	// durable.
	SyncDir(dir string) error
}

// storeFile is a file a storeFS opened for writing.
type storeFile interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenFile(name string, flag int) (storeFile, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, errors.ErrUnsupported) {
		err = nil // a file system whose directories take no fsync
	}
	return errors.Join(err, d.Close())
}
