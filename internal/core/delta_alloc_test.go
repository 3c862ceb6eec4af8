package core

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"incognito/internal/dataset"
	"incognito/internal/hierarchy"
)

// TestDeltaPrepareAllocs gates the allocations of DeltaRun.prepare on a
// fixed state: Adults (4,522 rows, 5 QI attributes, k=10) with about 2% of
// its rows deleted and as many duplicated. Rebinding the base groups to
// codes allocates per run, per record index and per interned (attribute,
// level), never per base group: the bound allows one allocation per eight
// groups, which a per-group key or value slice — let alone n·log n of them
// packed inside a sort comparator — would exceed.
func TestDeltaPrepareAllocs(t *testing.T) {
	a := dataset.Adults(4522, 1)
	cols, hs, err := a.QISubset(5)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput(a.Table, cols, hs, 10, 0)
	capture := &StateCapture{}
	in.Capture = capture
	if _, err := Run(in, Basic); err != nil {
		t.Fatal(err)
	}
	state := runState(&in, capture)
	if len(state.Base) < 2000 {
		t.Fatalf("fixture has only %d base groups; the gate needs thousands", len(state.Base))
	}

	var drop []int
	var del, add [][]string
	for r := 0; r < a.Table.NumRows(); r += 50 {
		drop = append(drop, r)
		del = append(del, a.Table.Row(r))
		add = append(add, a.Table.Row(r+1))
	}
	edited, err := a.Table.Edit(drop, add)
	if err != nil {
		t.Fatal(err)
	}
	ehs := make([]*hierarchy.Hierarchy, len(cols))
	for i, c := range cols {
		if ehs[i], err = a.Specs[i].Bind(edited.Dict(c)); err != nil {
			t.Fatal(err)
		}
	}
	// The original binding holds every value of both the deleted and the
	// duplicated rows.
	gen := func(rows [][]string) []DeltaRow {
		out := make([]DeltaRow, len(rows))
		for r, row := range rows {
			out[r].Gen = make([][]string, len(cols))
			for i, c := range cols {
				for l := 0; l <= hs[i].Height(); l++ {
					g, err := hs[i].GeneralizeValue(l, row[c])
					if err != nil {
						t.Fatal(err)
					}
					out[r].Gen[i] = append(out[r].Gen[i], g)
				}
			}
		}
		return out
	}
	added, removed := gen(add), gen(del)
	ein := NewInput(edited, cols, ehs, 10, 0)
	allocs := testing.AllocsPerRun(10, func() {
		run := &DeltaRun{State: state, Added: added, Removed: removed}
		if err := run.prepare(&ein); err != nil {
			t.Fatal(err)
		}
	})
	bound := float64(len(state.Base) / 8)
	t.Logf("prepare: %d base groups, %d records, %d delta rows: %.0f allocations (bound %.0f)",
		len(state.Base), len(state.Records), len(added)+len(removed), allocs, bound)
	if allocs > bound {
		t.Fatalf("prepare made %.0f allocations for %d base groups; the bound is %.0f", allocs, len(state.Base), bound)
	}
}

// TestCmpBaseValueMatchesPackedBytes pins cmpBaseValue to the order it
// stands for: the bytes of each value's length-prefixed encoding (length
// as four little-endian bytes, then the value). Lengths either side of 256
// are where that order departs from ordering by length.
func TestCmpBaseValueMatchesPackedBytes(t *testing.T) {
	packed := func(v string) string {
		return string(binary.LittleEndian.AppendUint32(nil, uint32(len(v)))) + v
	}
	rng := rand.New(rand.NewSource(5))
	var vals []string
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 511, 512, 513} {
		for i := 0; i < 3; i++ {
			var b strings.Builder
			for j := 0; j < n; j++ {
				b.WriteByte("ab\x00\xff"[rng.Intn(4)])
			}
			vals = append(vals, b.String())
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmpBaseValue(a, b), strings.Compare(packed(a), packed(b)); got != want {
				t.Fatalf("cmpBaseValue(len %d, len %d) = %d, packed bytes compare %d", len(a), len(b), got, want)
			}
		}
	}
}
