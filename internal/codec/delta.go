package codec

import (
	"fmt"

	"bundling/internal/wtp"
)

// Delta is the columnar wire form of a corpus mutation batch: the binary body
// of PATCH /v1/corpora/{id}, the coordinator→worker span-delta feed and the
// serving store's delta record. The cells travel as parallel columns
// (consumer ids, item ids, values) in application order — order matters,
// later cells override earlier ones — plus a sparse ascending list of cell
// indices that are deletes. A delta is tiny
// compared to the corpus it mutates, which is the point of the format: a
// one-cell change ships a few dozen bytes.
type Delta struct {
	// ID is the target corpus key, interned in the envelope. HTTP surfaces
	// name the corpus in the path and may leave it empty; the cluster feed
	// sets it to the span key the delta rebases.
	ID string
	// IfGeneration is the optimistic-concurrency guard: the store generation
	// the sender believes is live. 0 means unconditional.
	IfGeneration uint64
	// FromVersion and ToVersion are the span snapshot nonces of the cluster
	// feed: the worker applies the delta only if its replica holds
	// FromVersion, and stamps the patched replica ToVersion. A store delta
	// record carries its base and new generations in them. Both are 0 on
	// the HTTP mutation surface.
	FromVersion uint64
	ToVersion   uint64
	// Consumers, Items and Values are the cell columns, index-aligned.
	Consumers []int32
	Items     []int32
	Values    []float64
	// Deletes lists the indices of cells that are deletes, strictly
	// ascending; a deleted cell's value is 0 on the wire.
	Deletes []int32
}

// DeltaFromCells builds the wire form of a cell batch.
func DeltaFromCells(id string, ifGeneration uint64, cells []wtp.Cell) *Delta {
	d := &Delta{
		ID:           id,
		IfGeneration: ifGeneration,
		Consumers:    make([]int32, len(cells)),
		Items:        make([]int32, len(cells)),
		Values:       make([]float64, len(cells)),
	}
	for k, c := range cells {
		d.Consumers[k] = int32(c.Consumer)
		d.Items[k] = int32(c.Item)
		if c.Delete {
			d.Deletes = append(d.Deletes, int32(k))
		} else {
			d.Values[k] = c.Value
		}
	}
	return d
}

// Cells converts the columns back into the cell batch, in wire order.
func (d *Delta) Cells() []wtp.Cell {
	cells := make([]wtp.Cell, len(d.Consumers))
	for k := range cells {
		cells[k] = wtp.Cell{Consumer: int(d.Consumers[k]), Item: int(d.Items[k]), Value: d.Values[k]}
	}
	for _, k := range d.Deletes {
		cells[k].Value = 0
		cells[k].Delete = true
	}
	return cells
}

// EncodeDelta renders the delta as one codec envelope.
func EncodeDelta(d *Delta) []byte {
	dst := appendHeader(make([]byte, 0, hdrLen+40+len(d.ID)+2*len(d.Consumers)+2*len(d.Items)+9*len(d.Values)+2*len(d.Deletes)), kindDelta)
	dst = appendStringTable(dst, []string{d.ID})
	dst = appendDim(dst, 0) // corpus key ref
	dst = appendFixed64(dst, d.IfGeneration)
	dst = appendFixed64(dst, d.FromVersion)
	dst = appendFixed64(dst, d.ToVersion)
	dst = appendInt32Column(dst, d.Consumers)
	dst = appendInt32Column(dst, d.Items)
	dst = appendFloatColumn(dst, d.Values)
	dst = appendInt32Column(dst, d.Deletes)
	return dst
}

// IsDelta reports whether buf starts a delta envelope, so a reader holding
// either a delta or a record can dispatch on the envelope's kind.
func IsDelta(buf []byte) bool {
	return len(buf) >= hdrLen && buf[0] == magic0 && buf[1] == magic1 && buf[3] == kindDelta
}

// DecodeDelta parses one delta envelope. Structural invariants are enforced
// here — aligned column lengths, non-negative ids, strictly ascending delete
// indices in range, zero wire values on deleted cells — so a decoded delta
// always converts cleanly via Cells; range checks against a concrete matrix
// stay downstream, exactly as on the JSON path.
func DecodeDelta(buf []byte) (*Delta, error) {
	r := &reader{buf: buf}
	if err := r.header(kindDelta); err != nil {
		return nil, err
	}
	table, err := r.stringTable()
	if err != nil {
		return nil, err
	}
	d := &Delta{}
	if d.ID, err = r.stringRef(table); err != nil {
		return nil, err
	}
	if d.IfGeneration, err = r.fixed64(); err != nil {
		return nil, err
	}
	if d.FromVersion, err = r.fixed64(); err != nil {
		return nil, err
	}
	if d.ToVersion, err = r.fixed64(); err != nil {
		return nil, err
	}
	if d.Consumers, err = r.int32Column(); err != nil {
		return nil, err
	}
	if d.Items, err = r.int32Column(); err != nil {
		return nil, err
	}
	if d.Values, err = r.floatColumn(); err != nil {
		return nil, err
	}
	if d.Deletes, err = r.int32Column(); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if len(d.Items) != len(d.Consumers) || len(d.Values) != len(d.Consumers) {
		return nil, fmt.Errorf("codec: delta columns misaligned: %d consumers, %d items, %d values", len(d.Consumers), len(d.Items), len(d.Values))
	}
	for k, c := range d.Consumers {
		if c < 0 || d.Items[k] < 0 {
			return nil, fmt.Errorf("codec: delta cell %d has negative coordinate (%d,%d)", k, c, d.Items[k])
		}
	}
	prev := int32(-1)
	for _, k := range d.Deletes {
		if k <= prev || int(k) >= len(d.Consumers) {
			return nil, fmt.Errorf("codec: delete index %d outside ascending range of %d cells", k, len(d.Consumers))
		}
		if d.Values[k] != 0 {
			return nil, fmt.Errorf("codec: deleted cell %d carries value %g", k, d.Values[k])
		}
		prev = k
	}
	return d, nil
}
