package codec_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"bundling/internal/codec"
	"bundling/internal/wtp"
)

// testMatrix builds a canonical-ordered matrix document (item-major,
// ascending consumers) with full-mantissa values, the shape real uploads
// have.
func testMatrix() *codec.MatrixData {
	m := &codec.MatrixData{Consumers: 40, Items: 12}
	for i := 0; i < m.Items; i++ {
		for u := i % 3; u < m.Consumers; u += 3 {
			v := float64(u+1) / 5 * 1.25 * (2.0 + float64(i)*1.37)
			m.Entries = append(m.Entries, [3]float64{float64(u), float64(i), v})
		}
	}
	return m
}

// testSpan builds a small but structurally valid span document, version
// nonce with the high bit set (the distributed producer's shape).
func testSpan(t *testing.T) *wtp.SpanDoc {
	t.Helper()
	w, err := wtp.New(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 16; u++ {
		for i := u % 5; i < 5; i += 2 {
			if err := w.Set(u, i, float64(u)*0.731+float64(i)*1.19); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh, err := w.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	d := sh.Span(0, sh.Stripes())
	d.Version = 1<<63 | 12345
	return d
}

func TestMatrixRoundTrip(t *testing.T) {
	m := testMatrix()
	buf, err := codec.EncodeMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeMatrix(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("matrix did not round-trip bit-exactly")
	}
	// Empty documents round-trip too.
	empty := &codec.MatrixData{Consumers: 3, Items: 2}
	buf, err = codec.EncodeMatrix(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = codec.DecodeMatrix(buf); err != nil || got.Consumers != 3 || got.Items != 2 || len(got.Entries) != 0 {
		t.Fatalf("empty matrix round-trip: %+v, %v", got, err)
	}
}

func TestMatrixSpecialValues(t *testing.T) {
	m := &codec.MatrixData{Consumers: 4, Items: 4, Entries: [][3]float64{
		{0, 0, 0},
		{1, 1, math.Nextafter(1, 2)},      // every mantissa bit set low
		{2, 2, 1e-308},                    // subnormal neighborhood
		{3, 3, math.MaxFloat64},           // extreme exponent
		{0, 1, math.Copysign(0, -1)},      // negative zero (bit-level identity)
		{1, 2, 1.0000000000000002e+15},    // long decimal
		{2, 3, math.Float64frombits(0x1)}, // smallest subnormal
	}}
	buf, err := codec.EncodeMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeMatrix(buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.Entries {
		if math.Float64bits(got.Entries[k][2]) != math.Float64bits(m.Entries[k][2]) {
			t.Fatalf("entry %d: value bits changed: %x != %x", k,
				math.Float64bits(got.Entries[k][2]), math.Float64bits(m.Entries[k][2]))
		}
	}
}

func TestMatrixRejectsNonIntegralIDs(t *testing.T) {
	m := &codec.MatrixData{Consumers: 2, Items: 2, Entries: [][3]float64{{0.5, 0, 1}}}
	if _, err := codec.EncodeMatrix(m); err == nil {
		t.Fatal("non-integral consumer id encoded without error")
	}
	m.Entries[0] = [3]float64{0, 1.5, 1}
	if _, err := codec.EncodeMatrix(m); err == nil {
		t.Fatal("non-integral item id encoded without error")
	}
}

func TestSpanRoundTrip(t *testing.T) {
	d := testSpan(t)
	got, err := codec.DecodeSpan(codec.EncodeSpan(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("span did not round-trip: %+v != %+v", got, d)
	}
	if got.Version != 1<<63|12345 {
		t.Fatalf("high-bit version nonce corrupted: %x", got.Version)
	}
	// The decoded document must rebuild into a working store, same as JSON.
	if _, err := got.Store(); err != nil {
		t.Fatalf("decoded span does not rebuild: %v", err)
	}
}

func TestAssignRoundTrip(t *testing.T) {
	d := testSpan(t)
	corpus := "books/alpha:g7"
	gotCorpus, gotSpan, err := codec.DecodeAssign(codec.EncodeAssign(corpus, d))
	if err != nil {
		t.Fatal(err)
	}
	if gotCorpus != corpus {
		t.Fatalf("corpus key %q != %q", gotCorpus, corpus)
	}
	if !reflect.DeepEqual(gotSpan, d) {
		t.Fatal("assign span did not round-trip")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &codec.Record{
		ID:          "books",
		Tenant:      "alice",
		Generation:  7,
		CreatedAt:   time.Date(2026, 8, 8, 11, 22, 33, 444555666, time.UTC),
		OptionsJSON: []byte(`{"strategy":"mixed","theta":0.1}`),
		Matrix:      *testMatrix(),
		Entries:     123,
	}
	buf, err := codec.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.Equal(rec.CreatedAt) {
		t.Fatalf("created_at %v != %v", got.CreatedAt, rec.CreatedAt)
	}
	got.CreatedAt, rec.CreatedAt = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record did not round-trip: %+v != %+v", got, rec)
	}
}

func TestRecordZeroValues(t *testing.T) {
	rec := &codec.Record{ID: "x", Matrix: codec.MatrixData{Consumers: 1, Items: 1}}
	buf, err := codec.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.IsZero() {
		t.Fatalf("zero created_at decoded as %v", got.CreatedAt)
	}
	if got.Tenant != "" || got.OptionsJSON != nil || got.Generation != 0 {
		t.Fatalf("zero fields did not round-trip: %+v", got)
	}
}

// TestDecodeTruncations decodes every strict prefix of each valid envelope:
// all of them must fail with an error, none may panic.
func TestDecodeTruncations(t *testing.T) {
	span := testSpan(t)
	mbuf, err := codec.EncodeMatrix(testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	rbuf, err := codec.EncodeRecord(&codec.Record{ID: "r", Tenant: "t", Matrix: *testMatrix()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		buf    []byte
		decode func([]byte) error
	}{
		{"matrix", mbuf, func(b []byte) error { _, err := codec.DecodeMatrix(b); return err }},
		{"span", codec.EncodeSpan(span), func(b []byte) error { _, err := codec.DecodeSpan(b); return err }},
		{"assign", codec.EncodeAssign("c", span), func(b []byte) error { _, _, err := codec.DecodeAssign(b); return err }},
		{"record", rbuf, func(b []byte) error { _, err := codec.DecodeRecord(b); return err }},
	}
	for _, tc := range cases {
		if err := tc.decode(tc.buf); err != nil {
			t.Fatalf("%s: full buffer rejected: %v", tc.name, err)
		}
		for i := 0; i < len(tc.buf); i++ {
			if err := tc.decode(tc.buf[:i]); err == nil {
				t.Fatalf("%s: %d-byte prefix decoded without error", tc.name, i)
			}
		}
		// Trailing garbage after a complete payload must be rejected too.
		if err := tc.decode(append(append([]byte(nil), tc.buf...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", tc.name)
		}
	}
}

func TestDecodeHostileInput(t *testing.T) {
	span := testSpan(t)
	decoders := map[string]func([]byte) error{
		"matrix": func(b []byte) error { _, err := codec.DecodeMatrix(b); return err },
		"span":   func(b []byte) error { _, err := codec.DecodeSpan(b); return err },
		"assign": func(b []byte) error { _, _, err := codec.DecodeAssign(b); return err },
		"record": func(b []byte) error { _, err := codec.DecodeRecord(b); return err },
	}
	kinds := map[string]byte{"matrix": 0x01, "span": 0x02, "record": 0x03, "assign": 0x04}
	for name, decode := range decoders {
		hdr := []byte{0xBC, 'X', 1, kinds[name]}
		hostile := [][]byte{
			nil,
			{0xBC},
			[]byte("{\"json\":true}"),
			append(append([]byte(nil), hdr...), bytes.Repeat([]byte{0xFF}, 12)...),                          // overlong varint
			append(append([]byte(nil), hdr...), 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // huge length prefix, no data
			{0xBC, 'X', 2, kinds[name]}, // future format version
			{0xBC, 'X', 1, 0x7F},        // unknown kind
		}
		for i, b := range hostile {
			if err := decode(b); err == nil {
				t.Errorf("%s: hostile input %d decoded without error", name, i)
			}
		}
	}
	// Kind confusion: a valid span envelope must not decode as a matrix.
	if _, err := codec.DecodeMatrix(codec.EncodeSpan(span)); err == nil {
		t.Error("span envelope decoded as matrix")
	}
}

// TestBinarySmallerThanJSON pins the headline property on realistic shapes:
// the binary form of a canonical matrix and of a span feed is well under the
// JSON form (the paper-scale ≤ 50% bound is measured by bundlebench -exp
// codec and committed in BENCH_codec.json).
func TestBinarySmallerThanJSON(t *testing.T) {
	m := testMatrix()
	bin, err := codec.EncodeMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	jsonLen := encodedJSONLen(t, m)
	if len(bin) >= jsonLen {
		t.Fatalf("binary matrix %d bytes >= json %d bytes", len(bin), jsonLen)
	}
	span := testSpan(t)
	binSpan := codec.EncodeSpan(span)
	jsonSpanLen := encodedJSONLen(t, span)
	if len(binSpan) >= jsonSpanLen {
		t.Fatalf("binary span %d bytes >= json %d bytes", len(binSpan), jsonSpanLen)
	}
}
