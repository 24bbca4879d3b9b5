package wtp

import (
	"fmt"
	"math"
	"testing"
)

// The Matrix keeps only per-item postings, so At, BundleWTP and the totals
// all read the same structure they would be checked against. The helpers
// below check it against an independent implementation instead: a dense
// consumers × items shadow that the tests fill with the same writes.

// newShadow returns an all-zero m×n dense shadow.
func newShadow(m, n int) [][]float64 {
	d := make([][]float64, m)
	for u := range d {
		d[u] = make([]float64, n)
	}
	return d
}

// cloneShadow deep-copies a shadow.
func cloneShadow(d [][]float64) [][]float64 {
	c := make([][]float64, len(d))
	for u := range d {
		c[u] = append([]float64(nil), d[u]...)
	}
	return c
}

// checkShadow reports the first way w disagrees with its dense shadow: a
// cell read through At, a posting list that is not strictly ascending or
// holds a zero or a value the shadow does not, a column or grand total off
// by more than 1e-9, or an entry count.
func checkShadow(w *Matrix, d [][]float64) error {
	if w.Consumers() != len(d) {
		return fmt.Errorf("%d consumers, shadow %d", w.Consumers(), len(d))
	}
	var total float64
	var entries int
	for i := 0; i < w.Items(); i++ {
		var col float64
		for u := range d {
			if got := w.At(u, i); got != d[u][i] {
				return fmt.Errorf("At(%d,%d) = %g, shadow %g", u, i, got, d[u][i])
			}
			col += d[u][i]
			if d[u][i] != 0 {
				entries++
			}
		}
		for k, e := range w.Postings(i) {
			if e.Value == 0 || e.Value != d[e.Consumer][i] {
				return fmt.Errorf("item %d posting %+v, shadow %g", i, e, d[e.Consumer][i])
			}
			if k > 0 && w.Postings(i)[k-1].Consumer >= e.Consumer {
				return fmt.Errorf("item %d postings not strictly ascending at %d", i, k)
			}
		}
		if math.Abs(w.ItemTotal(i)-col) > 1e-9 {
			return fmt.Errorf("ItemTotal(%d) = %g, shadow %g", i, w.ItemTotal(i), col)
		}
		total += col
	}
	if math.Abs(w.Total()-total) > 1e-9 {
		return fmt.Errorf("Total = %g, shadow %g", w.Total(), total)
	}
	if w.Entries() != entries {
		return fmt.Errorf("Entries = %d, shadow %d", w.Entries(), entries)
	}
	return nil
}

// checkBundleShadow checks BundleWTP and BundleVector for one bundle
// against Eq. 1 summed over the shadow: every consumer with a non-zero
// bundle WTP is in the vector, and no other.
func checkBundleShadow(w *Matrix, d [][]float64, items []int, theta float64) error {
	ids, vals := w.BundleVector(items, theta, nil, nil)
	k := 0
	for u := range d {
		var sum float64
		for _, i := range items {
			sum += d[u][i]
		}
		want := sum * (1 + theta)
		if got := w.BundleWTP(u, items, theta); math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("BundleWTP(%d, %v) = %g, shadow %g", u, items, got, want)
		}
		if want == 0 {
			continue
		}
		if k == len(ids) || ids[k] != u || math.Abs(vals[k]-want) > 1e-9 {
			return fmt.Errorf("BundleVector(%v) misses consumer %d at %g", items, u, want)
		}
		k++
	}
	if k != len(ids) {
		return fmt.Errorf("BundleVector(%v) has %d consumers, shadow %d", items, len(ids), k)
	}
	return nil
}

// FuzzMatrixOps drives a byte-coded sequence of Set, Delete and WithDelta on
// a small matrix beside a dense shadow. Each op is 4 bytes: kind, consumer,
// item, value (a value byte with its top bit set deletes inside a delta).
// A WithDelta reads its op's cell plus up to 3 more 3-byte cells after it,
// and the derived matrix becomes the one later ops mutate. After every op
// the current matrix must match its shadow, every earlier WithDelta parent
// must still match the shadow it had when derived from, and the version
// must advance by one per effective Set or Delete and per delta.
func FuzzMatrixOps(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 2, 8, 0, 2, 2, 16, 2, 0, 1, 0, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{7, 5, 2, 0, 0, 9, 0, 1, 1, 9, 0x32, 1, 1, 200, 1, 1, 0, 1, 2, 3, 0, 0, 2, 1, 1, 0x12, 4, 2, 7, 3, 3, 0x80})
	f.Add([]byte{1, 1, 0, 0, 0, 5, 0, 0, 0, 5, 1, 0, 0, 0, 2, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 400 {
			return
		}
		m, n := 1+int(data[0])%8, 1+int(data[1])%6
		w, d := MustNew(m, n), newShadow(m, n)
		type snapshot struct {
			w *Matrix
			d [][]float64
		}
		var parents []snapshot
		value := func(b byte) float64 { return float64(b&0x7f) / 8 }
		for p := 2; p+4 <= len(data); p += 4 {
			kind, u, i, v := data[p], int(data[p+1])%m, int(data[p+2])%n, data[p+3]
			version := w.Version()
			switch kind % 3 {
			case 0:
				if err := w.Set(u, i, value(v)); err != nil {
					t.Fatal(err)
				}
				if d[u][i] != value(v) {
					version++
				}
				d[u][i] = value(v)
			case 1:
				if err := w.Delete(u, i); err != nil {
					t.Fatal(err)
				}
				if d[u][i] != 0 {
					version++
				}
				d[u][i] = 0
			case 2:
				cells := []Cell{{Consumer: u, Item: i, Value: value(v), Delete: v&0x80 != 0}}
				for extra := int(kind>>4) % 4; extra > 0 && p+7 <= len(data); extra-- {
					p += 3
					cells = append(cells, Cell{Consumer: int(data[p+1]) % m, Item: int(data[p+2]) % n, Value: value(data[p+3]), Delete: data[p+3]&0x80 != 0})
				}
				nd := cloneShadow(d)
				for k := range cells {
					if cells[k].Delete {
						cells[k].Value = 0
					}
					nd[cells[k].Consumer][cells[k].Item] = cells[k].Value
				}
				nw, err := w.WithDelta(cells)
				if err != nil {
					t.Fatal(err)
				}
				parents = append(parents, snapshot{w, d})
				w, d, version = nw, nd, version+1
			}
			if w.Version() != version {
				t.Fatalf("op at byte %d: version %d, want %d", p, w.Version(), version)
			}
			if err := checkShadow(w, d); err != nil {
				t.Fatalf("op at byte %d: %v", p, err)
			}
			for k, s := range parents {
				if err := checkShadow(s.w, s.d); err != nil {
					t.Fatalf("op at byte %d: parent %d changed: %v", p, k, err)
				}
			}
		}
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		if err := checkBundleShadow(w, d, items, 0.1); err != nil {
			t.Fatal(err)
		}
	})
}
