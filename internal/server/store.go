package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bundling"
	"bundling/internal/codec"
)

// Store is the corpus persistence layer of the serving tier: an
// append-on-upload record store under one data directory. It only
// persists; the serving registry is the daemon's corpus catalog and reads
// the manifest once, at boot (Catalog). Every uploaded corpus is written
// as a versioned snapshot record (the MatrixDoc plus its session metadata),
// every PATCH as a delta record chained onto the generation it mutated,
// and both are tracked in a manifest, so a restarted daemon restores its
// catalog exactly — same corpora, same owners, same upload generations.
// Generations matter beyond bookkeeping: result-cache keys and cluster span
// identities embed them, so continuing the counter across restarts is what
// keeps a post-restart re-upload from ever aliasing a pre-restart result.
//
// Layout under the data directory:
//
//	manifest.json            per corpus ID: live generation, owner, entry
//	                         count and listing metadata, plus the last
//	                         generation ever assigned and delete tombstones
//	corpora/<name>.g<N>.bin  one record per (corpus, generation), a codec
//	                         envelope (internal/codec): a snapshot record
//	                         for an upload, a delta envelope for a PATCH
//
// Records are written to a temp file and renamed into place, and the
// manifest is rewritten the same way, so a crash mid-upload leaves either
// the previous corpus generation or the new one — never a torn record. A
// background compactor folds long delta chains into snapshots and deletes
// records superseded by a newer generation or by a delete; until it runs
// they are dead weight on disk, never served.
//
// A Store is safe for concurrent use.
type Store struct {
	dir string

	mu     sync.Mutex
	man    manifest
	foldAt int // delta-chain length that triggers compaction folding (guarded by mu)

	compactCh chan struct{}
	closed    chan struct{}
	wg        sync.WaitGroup
}

// manifest is the store's durable index.
type manifest struct {
	// Live maps corpus ID to the generation currently serving. IDs absent
	// from Live (but present in Generations) are deleted corpora.
	Live map[string]int `json:"live"`
	// Generations maps corpus ID to the last upload generation ever
	// assigned, surviving deletes — the registry seeds its version counters
	// from it so a re-created ID continues its sequence.
	Generations map[string]int `json:"generations"`
	// Owners maps each live corpus ID to its owning tenant (absent =
	// public), so ownership survives a restart.
	Owners map[string]string `json:"owners,omitempty"`
	// Entries maps each live corpus ID to its non-zero WTP entry count —
	// the quota currency of a restored corpus.
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
	// Bases maps a live corpus whose head record is a delta to the
	// generation of the snapshot its chain bottoms out on. Records between
	// base and live are the chain links and must survive compaction; absent
	// means the live record is itself a snapshot. Compaction folds long
	// chains back into snapshots and clears the entry.
	Bases map[string]int `json:"bases,omitempty"`
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
		Bases:       maps.Clone(m.Bases),
	}
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
	// BaseGeneration and Cells make the record a delta: it holds no Matrix,
	// only the mutation cells applied on top of the record at
	// BaseGeneration (which may itself be a delta — chains bottom out on a
	// snapshot). LiveRecord materializes chains transparently;
	// compaction folds them back into snapshots.
	BaseGeneration int                  `json:"base_generation,omitempty"`
	Cells          []bundling.DeltaCell `json:"cells,omitempty"`
}

// isDelta reports whether the record is a chained delta rather than a full
// snapshot.
func (rec CorpusRecord) isDelta() bool { return rec.BaseGeneration > 0 && rec.Matrix == nil }

// OpenStore opens (creating if needed) the snapshot store under dir and
// starts its background compactor. Callers must Close it to flush the final
// compaction pass.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "corpora"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:    dir,
		foldAt: defaultFoldAt,
		man: manifest{
			Live:        map[string]int{},
			Generations: map[string]int{},
			Owners:      map[string]string{},
			Entries:     map[string]int{},
			Deleted:     map[string]int{},
			Meta:        map[string]corpusMeta{},
			Bases:       map[string]int{},
		},
		compactCh: make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
	// Unmarshal into the initialized maps: a map the manifest omits (the
	// omitempty ones, when empty) stays allocated.
	buf, err := os.ReadFile(s.manifestPath())
	switch {
	case err == nil:
		if err := json.Unmarshal(buf, &s.man); err != nil {
			return nil, fmt.Errorf("store: manifest: %w", err)
		}
	case errors.Is(err, os.ErrNotExist):
		// fresh store
	default:
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	s.wg.Add(1)
	go s.compactor()
	s.kickCompact()
	return s, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Close stops the background compactor and runs one final synchronous
// compaction pass — the graceful flush the daemon performs on shutdown.
func (s *Store) Close() error {
	close(s.closed)
	s.wg.Wait()
	return s.compactNow()
}

// Put durably records one uploaded corpus: the record file first, then the
// manifest pointing at it. On return the corpus survives a crash.
func (s *Store) Put(rec CorpusRecord) error {
	if rec.Matrix == nil {
		return fmt.Errorf("store: record %q has no matrix", rec.ID)
	}
	buf, err := encodeRecordBinary(rec)
	if err != nil {
		return fmt.Errorf("store: encode %q: %w", rec.ID, err)
	}
	if err := writeAtomic(s.recordPath(rec.ID, rec.Generation), buf); err != nil {
		return fmt.Errorf("store: write %q: %w", rec.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Live only ever advances: two concurrent re-uploads persist outside
	// the registry lock, so the older generation's Put may land second and
	// must not roll the manifest back behind what memory serves. Nor may it
	// advance past a tombstone: a Delete that raced this Put already told
	// its caller generations through Deleted[id] are gone, and the record
	// of a tombstoned generation is dead on arrival (compaction reclaims
	// it). Owner and entry count follow the generation that wins.
	next := s.man.clone()
	if rec.Generation > next.Live[rec.ID] && rec.Generation > next.Deleted[rec.ID] {
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
		delete(next.Bases, rec.ID) // a full snapshot resets any delta chain
	}
	if rec.Generation > next.Generations[rec.ID] {
		next.Generations[rec.ID] = rec.Generation
	}
	if err := s.saveManifestLocked(next); err != nil {
		return err
	}
	s.man = next
	s.kickCompact()
	return nil
}

// defaultFoldAt is the delta-chain length at which compaction folds a
// chain into a snapshot: long enough that a burst of PATCHes stays on the
// cheap append path, short enough that restart replay and record reads stay
// O(1)-ish.
const defaultFoldAt = 16

// PutDelta durably records one corpus mutation as a generation-chained
// delta: the cells applied on top of the record at rec.BaseGeneration,
// without re-writing the matrix. The record is the codec delta envelope a
// binary PATCH body uses, with the base and new generations in its
// FromVersion and ToVersion; tenant, options and creation time are not
// written, because a PATCH never changes them and the chain's snapshot
// holds them. Only Entries goes to the manifest. Reads materialize the
// chain transparently; the background compactor folds chains past the fold
// threshold back into snapshots. Same durability contract as Put: on return
// the mutation survives a crash.
func (s *Store) PutDelta(rec CorpusRecord) error {
	if !rec.isDelta() || len(rec.Cells) == 0 {
		return fmt.Errorf("store: record %q is not a delta", rec.ID)
	}
	if rec.BaseGeneration >= rec.Generation {
		return fmt.Errorf("store: delta %q generation %d does not follow its base %d",
			rec.ID, rec.Generation, rec.BaseGeneration)
	}
	d := codec.DeltaFromCells(rec.ID, 0, rec.Cells)
	d.FromVersion, d.ToVersion = uint64(rec.BaseGeneration), uint64(rec.Generation)
	if err := writeAtomic(s.recordPath(rec.ID, rec.Generation), codec.EncodeDelta(d)); err != nil {
		return fmt.Errorf("store: write delta %q: %w", rec.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Same advance-only rules as Put: a delta whose generation a newer
	// persist or a delete already passed is dead on arrival, not an error
	// (compaction reclaims its record). Otherwise the base must be the live
	// generation — a chain can only extend what the disk holds.
	if rec.Generation <= s.man.Live[rec.ID] || rec.Generation <= s.man.Deleted[rec.ID] {
		return nil
	}
	if s.man.Live[rec.ID] != rec.BaseGeneration {
		return fmt.Errorf("store: delta %q bases on generation %d, live is %d",
			rec.ID, rec.BaseGeneration, s.man.Live[rec.ID])
	}
	next := s.man.clone()
	if _, chained := next.Bases[rec.ID]; !chained {
		next.Bases[rec.ID] = rec.BaseGeneration // chain root: the snapshot we extend
	}
	next.Live[rec.ID] = rec.Generation
	next.Entries[rec.ID] = rec.Entries
	if rec.Generation > next.Generations[rec.ID] {
		next.Generations[rec.ID] = rec.Generation
	}
	if err := s.saveManifestLocked(next); err != nil {
		return err
	}
	s.man = next
	s.kickCompact()
	return nil
}

// materialize resolves a record into a full snapshot: a plain record passes
// through, a delta record walks its base chain down to the snapshot and
// replays every cell batch in order onto the matrix. Tenant, options and
// creation time come from the snapshot, the entry count from the folded
// matrix.
func (s *Store) materialize(rec CorpusRecord) (CorpusRecord, error) {
	if !rec.isDelta() {
		return rec, nil
	}
	head := rec
	var batches [][]bundling.DeltaCell
	for rec.isDelta() {
		// Generations strictly decrease down the chain (PutDelta enforces
		// it), so the walk terminates; the explicit bound catches a
		// hand-corrupted record before it can loop or recurse the disk.
		if len(batches) >= 1<<16 {
			return CorpusRecord{}, fmt.Errorf("store: delta chain of %q exceeds %d links", head.ID, 1<<16)
		}
		batches = append(batches, rec.Cells)
		base, err := s.readRecord(rec.ID, rec.BaseGeneration)
		if err != nil {
			return CorpusRecord{}, fmt.Errorf("store: delta base g%d of %q: %w", rec.BaseGeneration, rec.ID, err)
		}
		if base.isDelta() && base.Generation >= rec.Generation {
			return CorpusRecord{}, fmt.Errorf("store: delta chain of %q does not descend at g%d", head.ID, base.Generation)
		}
		rec = base
	}
	if rec.Matrix == nil {
		return CorpusRecord{}, fmt.Errorf("store: delta chain of %q bottoms out without a matrix", head.ID)
	}
	w, err := foldCells(rec.Matrix, batches)
	if err != nil {
		return CorpusRecord{}, fmt.Errorf("store: fold chain of %q: %w", head.ID, err)
	}
	rec.Generation = head.Generation
	rec.Matrix = bundling.NewMatrixDoc(w)
	rec.Entries = w.Entries()
	return rec, nil
}

// foldCells replays delta batches (oldest last in the slice — the chain is
// walked head-first) onto a snapshot matrix doc, producing the folded matrix.
func foldCells(base *bundling.MatrixDoc, batches [][]bundling.DeltaCell) (*bundling.Matrix, error) {
	w, err := base.Matrix()
	if err != nil {
		return nil, err
	}
	for i := len(batches) - 1; i >= 0; i-- {
		for _, c := range batches[i] {
			if c.Delete {
				err = w.Delete(c.Consumer, c.Item)
			} else {
				err = w.Set(c.Consumer, c.Item, c.Value)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// LiveRecord loads the live record of one corpus ID, if any — the source of
// a lazy reload. A delta chain is materialized into the full snapshot it
// describes.
func (s *Store) LiveRecord(id string) (CorpusRecord, bool) {
	s.mu.Lock()
	gen, ok := s.man.Live[id]
	s.mu.Unlock()
	if !ok {
		return CorpusRecord{}, false
	}
	// Two attempts: a concurrent compaction can fold the chain and reclaim a
	// link mid-walk; the re-read then sees the folded snapshot directly.
	for attempt := 0; attempt < 2; attempt++ {
		rec, err := s.readRecord(id, gen)
		if err == nil {
			rec, err = s.materialize(rec)
		}
		if err == nil && rec.ID == id && rec.Matrix != nil {
			return rec, true
		}
	}
	return CorpusRecord{}, false
}

// Catalog snapshots the manifest: the listing metadata of every live
// (persisted, non-deleted) corpus, keyed by ID, and the last upload
// generation ever assigned per ID, deleted IDs included. The serving
// registry fills its catalog from it at boot, and rolls an entry back to it
// after a failed persist, without opening a record file (whose matrices can
// be as large as the upload bound). Stripe and total-WTP figures are
// unknown until a corpus is re-indexed and stay zero.
func (s *Store) Catalog() (live map[string]CorpusInfo, generations map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live = make(map[string]CorpusInfo, len(s.man.Live))
	for id, gen := range s.man.Live {
		meta := s.man.Meta[id]
		live[id] = CorpusInfo{
			ID:        id,
			Version:   gen,
			Tenant:    s.man.Owners[id],
			Consumers: meta.Consumers,
			Items:     meta.Items,
			Entries:   s.man.Entries[id],
			Options:   meta.Options,
			CreatedAt: meta.CreatedAt,
		}
	}
	return live, maps.Clone(s.man.Generations)
}

// Delete durably removes a corpus from the manifest (its record files are
// reclaimed by compaction) — but only while its live generation is still at
// most gen, the generation the caller deleted. A concurrent re-upload that
// already persisted a newer generation wins: its durably-acknowledged
// corpus must never be un-persisted by a delete that raced it. The ID's
// generation counter is retained so a later re-upload continues the
// sequence.
func (s *Store) Delete(id string, gen int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if live, ok := s.man.Live[id]; ok && live > gen {
		return nil
	}
	if s.man.Deleted[id] >= gen {
		return nil // already tombstoned through this generation
	}
	next := s.man.clone()
	delete(next.Live, id)
	delete(next.Owners, id)
	delete(next.Entries, id)
	delete(next.Meta, id)
	delete(next.Bases, id)
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
		return err
	}
	s.man = next
	s.kickCompact()
	return nil
}

// DiskBytes walks the data directory and sums every file's size — manifest,
// records and any not-yet-compacted garbage — the source of the
// bundled_store_disk_bytes gauge.
func (s *Store) DiskBytes() int64 {
	var total int64
	_ = filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// Len returns the number of live (persisted, non-deleted) corpora.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.man.Live)
}

// --- internals --------------------------------------------------------------

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }

// binExt is the record file extension: every record is a codec envelope.
const binExt = ".bin"

// recordPath names a (corpus, generation) record file. The name keeps a
// sanitized prefix of the ID for operator readability and appends an FNV
// hash of the full ID so two IDs that sanitize identically cannot collide.
func (s *Store) recordPath(id string, gen int) string {
	return filepath.Join(s.dir, "corpora", fmt.Sprintf("%s.g%d%s", recordName(id), gen, binExt))
}

// readRecord loads one (corpus, generation) record, a snapshot or a delta
// as the envelope's kind says.
func (s *Store) readRecord(id string, gen int) (CorpusRecord, error) {
	buf, err := os.ReadFile(s.recordPath(id, gen))
	if err != nil {
		return CorpusRecord{}, err
	}
	if !codec.IsDelta(buf) {
		return decodeRecordBinary(buf)
	}
	d, err := codec.DecodeDelta(buf)
	if err != nil {
		return CorpusRecord{}, err
	}
	return CorpusRecord{
		ID:             d.ID,
		Generation:     int(d.ToVersion),
		BaseGeneration: int(d.FromVersion),
		Cells:          d.Cells(),
	}, nil
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
	if err := writeAtomic(s.manifestPath(), buf); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

// writeAtomic writes buf to path via a temp file + rename, so readers (and
// crashes) see either the old content or the new, never a torn write.
func writeAtomic(path string, buf []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(buf)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	// The rename itself is only durable once the directory entry is synced;
	// best effort on platforms whose directories reject Sync.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
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

// foldChains rewrites every live delta chain past the fold threshold as a
// full snapshot at the head generation: the materialized record replaces
// the delta head in place, under the same (corpus, generation) name, so a
// reader sees either the head delta (whose links are still retained) or the
// snapshot. Then the manifest's chain-root entry is cleared so the next
// reclaim pass frees the chain links. A chain that grew meanwhile simply
// folds again on a later pass.
func (s *Store) foldChains() {
	type chain struct {
		id  string
		gen int
	}
	s.mu.Lock()
	var chains []chain
	for id, base := range s.man.Bases {
		if gen, ok := s.man.Live[id]; ok && gen-base >= s.foldAt {
			chains = append(chains, chain{id, gen})
		}
	}
	s.mu.Unlock()
	for _, c := range chains {
		rec, err := s.readRecord(c.id, c.gen)
		if err == nil {
			rec, err = s.materialize(rec)
		}
		if err != nil || rec.Matrix == nil {
			continue // unreadable chain: leave it for the read path to surface
		}
		buf, err := encodeRecordBinary(rec)
		if err != nil {
			continue
		}
		if writeAtomic(s.recordPath(c.id, c.gen), buf) != nil {
			continue
		}
		s.mu.Lock()
		if s.man.Live[c.id] == c.gen {
			next := s.man.clone()
			delete(next.Bases, c.id)
			if s.saveManifestLocked(next) == nil {
				s.man = next
			}
		}
		s.mu.Unlock()
	}
}

// compactNow folds over-long delta chains into snapshots, then deletes every
// record file superseded by a newer generation or orphaned by a delete. It
// decides per file from the generation in the file name, never by "not in
// the manifest snapshot": an upload writes its record before the manifest,
// so a snapshot-membership rule would race a concurrent Put and delete a
// record the manifest is about to point at. Comparing generations is
// monotonic — a stale snapshot can only under-delete, and the next pass
// finishes the job. A live delta chain's links (every generation from its
// snapshot root up) are retained. Unrecognized files are left alone.
func (s *Store) compactNow() error {
	s.foldChains()
	s.mu.Lock()
	liveGen := make(map[string]int, len(s.man.Live))
	for id, gen := range s.man.Live {
		key := recordName(id)
		if base, chained := s.man.Bases[id]; chained && base < gen {
			gen = base // keep the whole chain down to its snapshot root
		}
		liveGen[key] = gen
	}
	lastGen := make(map[string]int, len(s.man.Generations))
	for id, gen := range s.man.Generations {
		lastGen[recordName(id)] = gen
	}
	s.mu.Unlock()
	entries, err := os.ReadDir(filepath.Join(s.dir, "corpora"))
	if err != nil {
		return err
	}
	var errs []error
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
		if live, isLive := liveGen[key]; isLive {
			dead = gen < live // superseded by a newer upload
		} else if last, known := lastGen[key]; known {
			dead = gen <= last // deleted ID; a concurrent re-upload is > last
		}
		if !dead {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, "corpora", name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// parseRecordName splits a record file name into its ID key (the sanitized
// prefix plus hash, i.e. recordName(id)) and generation.
func parseRecordName(name string) (key string, gen int, ok bool) {
	base, found := strings.CutSuffix(name, binExt)
	if !found {
		return "", 0, false
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
