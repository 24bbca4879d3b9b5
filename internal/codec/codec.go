// Package codec implements the bundling system's self-describing binary
// columnar wire and disk format — one envelope (magic, format version, payload
// kind) over a small set of column primitives: varint/zigzag-delta-encoded
// sorted integer columns, length-prefixed raw little-endian float64 columns
// (bit-exact round-trip, no decimal formatting), and an optional interned
// string table for corpus/span keys. Three hot payloads ride on it:
//
//   - MatrixData — the corpus upload body and the "bin" input of
//     bundling.DecodeMatrix (a columnar MatrixDoc);
//   - wtp.SpanDoc — the coordinator→worker span feed of the cluster
//     subsystem (the only encoding workers accept for it);
//   - Record — the persisted corpus snapshot of the serving store.
//
// Sorted ID columns delta-encode to mostly single-byte varints and float
// columns ship as raw 8-byte IEEE 754, so a paper-scale corpus or span feed
// lands well under half its JSON size while decoding to bit-identical
// values — results computed from a binary-fed worker or a binary record are
// equal to the JSON path's, not merely close.
//
// Every decoder is hostile-input safe: truncated buffers, corrupt varints and
// absurd length prefixes return errors — never a panic, and never an
// allocation that is not proportional to the input actually presented
// (length prefixes are validated against the bytes remaining before any
// column is allocated). The fuzz tests in this package pin that contract.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ContentType is the MIME type of every codec envelope on HTTP surfaces
// (corpus uploads, span feeds). The envelope's kind byte self-describes the
// payload, so one media type covers all of them.
const ContentType = "application/x-bundling-codec"

// Envelope layout: magic (2 bytes), format version, payload kind. The first
// byte is deliberately outside ASCII and invalid as UTF-8 text, so a codec
// buffer can never be mistaken for JSON (or vice versa).
const (
	magic0  = 0xBC
	magic1  = 'X'
	version = 1
	hdrLen  = 4
)

// Payload kinds.
const (
	kindMatrix = 0x01
	kindSpan   = 0x02
	kindRecord = 0x03
	kindAssign = 0x04
	kindDelta  = 0x05
)

// appendHeader starts an envelope of the given kind.
func appendHeader(dst []byte, kind byte) []byte {
	return append(dst, magic0, magic1, version, kind)
}

// reader is a bounds-checked cursor over one envelope. All primitives return
// an error instead of panicking on truncated or corrupt input.
type reader struct {
	buf []byte
	off int
}

// header validates the envelope and positions the reader on the payload.
func (r *reader) header(wantKind byte) error {
	if len(r.buf) < hdrLen {
		return fmt.Errorf("codec: buffer of %d bytes is shorter than the envelope", len(r.buf))
	}
	if r.buf[0] != magic0 || r.buf[1] != magic1 {
		return fmt.Errorf("codec: bad magic %#02x%02x", r.buf[0], r.buf[1])
	}
	if r.buf[2] != version {
		return fmt.Errorf("codec: unsupported format version %d (have %d)", r.buf[2], version)
	}
	if r.buf[3] != wantKind {
		return fmt.Errorf("codec: payload kind %#02x, want %#02x", r.buf[3], wantKind)
	}
	r.off = hdrLen
	return nil
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

// done reports trailing garbage after a fully decoded payload.
func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("codec: %d trailing bytes after payload", len(r.buf)-r.off)
	}
	return nil
}

// uvarint reads one unsigned varint.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("codec: truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// svarint reads one zigzag-encoded signed varint.
func (r *reader) svarint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// length reads a count prefix and validates it against the bytes remaining:
// the count's elements occupy at least minBytes each, so a hostile prefix can
// never force an allocation larger than a small multiple of the input.
func (r *reader) length(minBytes int) (int, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("codec: length prefix %d exceeds the %d bytes remaining", u, r.remaining())
	}
	return int(u), nil
}

// take consumes n raw bytes.
func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("codec: %d bytes requested with %d remaining", n, r.remaining())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// appendFixed64 appends one little-endian uint64 (version nonces carry their
// high bit set, so a varint would balloon them to 10 bytes).
func appendFixed64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// fixed64 reads one little-endian uint64 (span version nonces carry their
// high bit set, so a varint would balloon them to 10 bytes).
func (r *reader) fixed64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// appendSvarint appends a zigzag-encoded signed varint.
func appendSvarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// appendDim appends a non-negative dimension (counts, ids, generations).
func appendDim(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, uint64(v))
}

// dim reads a non-negative dimension that must fit the host int.
func (r *reader) dim() (int, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if u > math.MaxInt64/2 {
		return 0, fmt.Errorf("codec: dimension %d out of range", u)
	}
	return int(u), nil
}

// appendInt32Column appends a sorted-friendly int32 column: a count prefix
// followed by zigzag deltas between consecutive values. Sorted runs (posting
// ids, monotonic offsets) collapse to mostly single-byte deltas; the zigzag
// keeps resets at stripe boundaries encodable.
func appendInt32Column(dst []byte, vals []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		dst = appendSvarint(dst, int64(v)-prev)
		prev = int64(v)
	}
	return dst
}

// int32Column reads a delta-encoded int32 column.
func (r *reader) int32Column() ([]int32, error) {
	n, err := r.length(1)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	prev := int64(0)
	for i := range out {
		d, err := r.svarint()
		if err != nil {
			return nil, err
		}
		prev += d
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("codec: column value %d overflows int32", prev)
		}
		out[i] = int32(prev)
	}
	return out, nil
}

// Float column modes. Either way every value travels as its exact IEEE 754
// bits — no decimal detour — which is what keeps binary-fed results
// identical, not just close.
const (
	floatColRaw  = 0x00 // count prefix + raw 8-byte little-endian values
	floatColDict = 0x01 // distinct values once + varint refs per value
)

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendFloatColumn appends a float64 column, picking the smaller of two
// exact encodings: raw 8-byte little-endian values, or dictionary form —
// each distinct bit pattern shipped once plus a varint ref per value. WTP
// columns are products of a few star levels and per-item prices, so they
// repeat heavily and the dictionary typically cuts the column to a quarter;
// a column of mostly-distinct values (or NaN payload noise) stays raw.
func appendFloatColumn(dst []byte, vals []float64) []byte {
	idx := make(map[uint64]int, 64)
	refs := make([]uint64, len(vals))
	refBytes := 0
	for k, v := range vals {
		b := math.Float64bits(v)
		i, ok := idx[b]
		if !ok {
			i = len(idx)
			idx[b] = i
		}
		refs[k] = uint64(i)
		refBytes += uvarintLen(uint64(i))
	}
	if 8*len(idx)+refBytes < 8*len(vals) {
		dict := make([]uint64, len(idx))
		for bits, i := range idx {
			dict[i] = bits
		}
		dst = append(dst, floatColDict)
		dst = binary.AppendUvarint(dst, uint64(len(dict)))
		for _, bits := range dict {
			dst = binary.LittleEndian.AppendUint64(dst, bits)
		}
		dst = binary.AppendUvarint(dst, uint64(len(refs)))
		for _, ref := range refs {
			dst = binary.AppendUvarint(dst, ref)
		}
		return dst
	}
	dst = append(dst, floatColRaw)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// floatColumn reads a float64 column in either mode.
func (r *reader) floatColumn() ([]float64, error) {
	mode, err := r.take(1)
	if err != nil {
		return nil, err
	}
	switch mode[0] {
	case floatColRaw:
		n, err := r.length(8)
		if err != nil {
			return nil, err
		}
		b, err := r.take(n * 8)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		return out, nil
	case floatColDict:
		dn, err := r.length(8)
		if err != nil {
			return nil, err
		}
		b, err := r.take(dn * 8)
		if err != nil {
			return nil, err
		}
		dict := make([]float64, dn)
		for i := range dict {
			dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		n, err := r.length(1)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			u, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if u >= uint64(dn) {
				return nil, fmt.Errorf("codec: float ref %d outside dictionary of %d", u, dn)
			}
			out[i] = dict[u]
		}
		return out, nil
	default:
		return nil, fmt.Errorf("codec: unknown float column mode %#02x", mode[0])
	}
}

// appendStringTable appends an interned string table: count prefix, then each
// string length-prefixed. Payloads reference entries by index, so a corpus
// key shipped in both an envelope and its metadata costs its bytes once.
func appendStringTable(dst []byte, table []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(table)))
	for _, s := range table {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// stringTable reads an interned string table.
func (r *reader) stringTable() ([]string, error) {
	n, err := r.length(1)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		ln, err := r.length(1)
		if err != nil {
			return nil, err
		}
		b, err := r.take(ln)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}

// stringRef reads an index into table.
func (r *reader) stringRef(table []string) (string, error) {
	u, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if u >= uint64(len(table)) {
		return "", fmt.Errorf("codec: string ref %d outside table of %d", u, len(table))
	}
	return table[u], nil
}
