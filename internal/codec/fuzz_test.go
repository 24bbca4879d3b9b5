package codec_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"bundling/internal/codec"
	"bundling/internal/wtp"
)

// encodedJSONLen is the JSON byte size of v, the baseline the size tests
// compare against.
func encodedJSONLen(t *testing.T, v any) int {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return len(buf)
}

// seedCorpus adds the valid envelopes plus classic hostile shapes to a fuzz
// corpus.
func seedCorpus(f *testing.F, valid ...[]byte) {
	for _, b := range valid {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xBC, 'X', 1})
	f.Add([]byte{0xBC, 'X', 1, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte(`{"consumers":3}`))
}

// The fuzz targets pin the decoder contract: arbitrary input either decodes
// or returns an error — never a panic, and never an allocation beyond the
// input's own size class (the length guards make oversized prefixes fail
// before any column is allocated; a violation would OOM the fuzz worker).
// Successful decodes must re-encode and decode back to the same document.

func FuzzDecodeMatrix(f *testing.F) {
	valid, err := codec.EncodeMatrix(&codec.MatrixData{Consumers: 3, Items: 2, Entries: [][3]float64{{0, 0, 1.5}, {2, 1, 0.25}}})
	if err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := codec.DecodeMatrix(data)
		if err != nil {
			return
		}
		// Hostile-but-accepted ids can sit outside int64 after the float
		// conversion, which re-encoding rejects; that is fine — the contract
		// is no panic, and re-encodable documents must round-trip.
		buf, err := codec.EncodeMatrix(m)
		if err != nil {
			return
		}
		again, err := codec.DecodeMatrix(buf)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded matrix did not round-trip: %v", err)
		}
	})
}

func FuzzDecodeSpan(f *testing.F) {
	seedCorpus(f, []byte{0xBC, 'X', 1, 0x02, 4, 2, 2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 2, 2, 1, 0, 1, 0})
	// A layout whose offset count 4 × 2^62 wraps to 0, matching the empty
	// offsets column.
	f.Add(codec.EncodeSpan(&wtp.SpanDoc{Consumers: 4, Items: 1<<62 - 1, StripeSize: 1, End: 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := codec.DecodeSpan(data)
		if err != nil {
			return
		}
		again, err := codec.DecodeSpan(codec.EncodeSpan(d))
		if err != nil || !reflect.DeepEqual(again, d) {
			t.Fatalf("re-encoded span did not round-trip: %v", err)
		}
		// A structurally invalid span must fail Store(), not panic — the
		// worker-side guarantee for binary-fed assigns.
		_, _ = d.Store()
	})
}

func FuzzDecodeRecord(f *testing.F) {
	valid, err := codec.EncodeRecord(&codec.Record{
		ID: "c", Tenant: "t", Generation: 2, Entries: 1,
		OptionsJSON: []byte(`{}`),
		Matrix:      codec.MatrixData{Consumers: 2, Items: 1, Entries: [][3]float64{{0, 0, 2.5}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := codec.DecodeRecord(data)
		if err != nil {
			return
		}
		buf, err := codec.EncodeRecord(rec)
		if err != nil {
			return
		}
		again, err := codec.DecodeRecord(buf)
		if err != nil {
			t.Fatalf("re-encoded record did not decode: %v", err)
		}
		if again.ID != rec.ID || again.Tenant != rec.Tenant || again.Generation != rec.Generation {
			t.Fatal("re-encoded record changed identity")
		}
	})
}

func FuzzDecodeDelta(f *testing.F) {
	valid := codec.EncodeDelta(codec.DeltaFromCells("c", 3, []wtp.Cell{
		{Consumer: 0, Item: 1, Value: 2.5},
		{Consumer: 4, Item: 0, Delete: true},
		{Consumer: 2, Item: 1, Value: 0.25},
	}))
	seedCorpus(f, valid)
	// Hostile shapes specific to the delta payload: misaligned columns,
	// out-of-range and descending delete indices, a value on a deleted cell.
	f.Add([]byte{0xBC, 'X', 1, 0x05, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := codec.DecodeDelta(data)
		if err != nil {
			return
		}
		again, err := codec.DecodeDelta(codec.EncodeDelta(d))
		if err != nil || !reflect.DeepEqual(again, d) {
			t.Fatalf("re-encoded delta did not round-trip: %v", err)
		}
		// A decoded delta must always convert to cells without panicking,
		// and the cells must survive the column round-trip.
		cells := d.Cells()
		back := codec.DeltaFromCells(d.ID, d.IfGeneration, cells)
		if !reflect.DeepEqual(back.Consumers, d.Consumers) || !reflect.DeepEqual(back.Values, d.Values) {
			t.Fatal("cells did not round-trip through columns")
		}
	})
}

func FuzzDecodeAssign(f *testing.F) {
	seedCorpus(f, []byte{0xBC, 'X', 1, 0x04, 1, 1, 'c', 0, 4, 2, 2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 2, 2, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		corpus, span, err := codec.DecodeAssign(data)
		if err != nil {
			return
		}
		c2, s2, err := codec.DecodeAssign(codec.EncodeAssign(corpus, span))
		if err != nil || c2 != corpus || !reflect.DeepEqual(s2, span) {
			t.Fatalf("re-encoded assign did not round-trip: %v", err)
		}
	})
}
