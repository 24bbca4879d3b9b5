package wtp

import (
	"math"
	"testing"
)

// TestNewRejectsHugeDimensions pins the dimension limit: a declaration past
// maxLen on either axis must error before allocating, never panic or
// exhaust memory (corrupt input with sky-high ids, or a tiny upload
// declaring a huge shape). The limit itself is accepted on each axis.
func TestNewRejectsHugeDimensions(t *testing.T) {
	cases := []struct{ m, n int }{
		{9_000_000_000_000_000_000, 1},
		{4_000_000_000, 4_000_000_000},
		{1_073_741_824, 2},
		{maxLen + 1, 1},
		{1, maxLen + 1},
	}
	for _, c := range cases {
		if _, err := New(c.m, c.n); err == nil {
			t.Errorf("New(%d, %d): expected error", c.m, c.n)
		}
	}
	for _, c := range []struct{ m, n int }{{1024, 512}, {maxLen, 1}, {1, maxLen}} {
		if _, err := New(c.m, c.n); err != nil {
			t.Errorf("New(%d, %d): %v", c.m, c.n, err)
		}
	}
}

// TestShardRejectsOffsetsOverLimit pins the shard's offset bound: 16
// one-consumer stripes over 65,535 items need exactly maxLen offsets and
// are accepted; one more item is rejected before anything is allocated.
// An absurd stripe size must not overflow the stripe count either.
func TestShardRejectsOffsetsOverLimit(t *testing.T) {
	if _, err := MustNew(16, maxLen/16-1).Shard(1); err != nil {
		t.Errorf("offsets at the limit: %v", err)
	}
	if _, err := MustNew(16, maxLen/16).Shard(1); err == nil {
		t.Error("offsets over the limit: expected error")
	}
	sh, err := MustNew(3, 2).Shard(math.MaxInt)
	if err != nil {
		t.Fatalf("max stripe size: %v", err)
	}
	if sh.Stripes() != 1 {
		t.Errorf("max stripe size: %d stripes, want 1", sh.Stripes())
	}
}

func TestEntriesAndVersion(t *testing.T) {
	w := MustNew(4, 3)
	if w.Entries() != 0 || w.Version() != 0 {
		t.Fatalf("fresh matrix: entries=%d version=%d", w.Entries(), w.Version())
	}
	w.MustSet(0, 0, 5)
	w.MustSet(2, 1, 3)
	if w.Entries() != 2 {
		t.Errorf("entries = %d, want 2", w.Entries())
	}
	v := w.Version()
	if v == 0 {
		t.Error("version should have advanced")
	}
	w.MustSet(0, 0, 5) // no-op write must not bump the version
	if w.Version() != v {
		t.Errorf("no-op set bumped version %d → %d", v, w.Version())
	}
	w.MustSet(0, 0, 0) // deletion bumps and drops the entry
	if w.Entries() != 1 || w.Version() == v {
		t.Errorf("after delete: entries=%d version=%d", w.Entries(), w.Version())
	}
	sh := mustShard(t, w, 2)
	if sh.Version() != w.Version() {
		t.Errorf("shard version %d != matrix %d", sh.Version(), w.Version())
	}
}
