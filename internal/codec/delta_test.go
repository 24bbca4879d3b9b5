package codec_test

import (
	"reflect"
	"testing"

	"bundling/internal/codec"
	"bundling/internal/wtp"
)

func TestDeltaRoundTrip(t *testing.T) {
	cells := []wtp.Cell{
		{Consumer: 5, Item: 2, Value: 12.75},
		{Consumer: 0, Item: 0, Delete: true},
		{Consumer: 5, Item: 2, Value: 3.5}, // duplicate coordinate, order preserved
		{Consumer: 9, Item: 1, Value: 0},   // explicit zero set, not a delete
	}
	d := codec.DeltaFromCells("shop", 7, cells)
	d.FromVersion = 1<<63 | 42
	d.ToVersion = 1<<63 | 43
	buf := codec.EncodeDelta(d)
	if !codec.IsDelta(buf) {
		t.Error("IsDelta(delta envelope) = false")
	}
	rec, err := codec.EncodeRecord(&codec.Record{ID: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	if codec.IsDelta(rec) || codec.IsDelta(buf[:3]) {
		t.Error("IsDelta accepted a record envelope or a truncated header")
	}
	got, err := codec.DecodeDelta(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, d)
	}
	if !reflect.DeepEqual(got.Cells(), cells) {
		t.Fatalf("cells mismatch:\n got %+v\nwant %+v", got.Cells(), cells)
	}
}

func TestDecodeDeltaRejectsCorruptShapes(t *testing.T) {
	base := codec.DeltaFromCells("c", 0, []wtp.Cell{
		{Consumer: 1, Item: 0, Value: 2},
		{Consumer: 3, Item: 1, Delete: true},
	})
	cases := map[string]*codec.Delta{
		"misaligned items":      {Consumers: []int32{1, 2}, Items: []int32{0}, Values: []float64{1, 2}},
		"misaligned values":     {Consumers: []int32{1}, Items: []int32{0}, Values: []float64{}},
		"negative consumer":     {Consumers: []int32{-1}, Items: []int32{0}, Values: []float64{1}},
		"negative item":         {Consumers: []int32{1}, Items: []int32{-2}, Values: []float64{1}},
		"delete out of range":   {Consumers: []int32{1}, Items: []int32{0}, Values: []float64{0}, Deletes: []int32{1}},
		"delete descending":     {Consumers: []int32{1, 2}, Items: []int32{0, 0}, Values: []float64{0, 0}, Deletes: []int32{1, 0}},
		"delete carrying value": {Consumers: []int32{1}, Items: []int32{0}, Values: []float64{5}, Deletes: []int32{0}},
	}
	for name, d := range cases {
		if _, err := codec.DecodeDelta(codec.EncodeDelta(d)); err == nil {
			t.Errorf("%s: decoder accepted corrupt delta", name)
		}
	}
	// Truncations of a valid envelope must error, never panic.
	buf := codec.EncodeDelta(base)
	for n := 0; n < len(buf); n++ {
		if _, err := codec.DecodeDelta(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}
