package core

import (
	"testing"

	"incognito/internal/dataset"
)

// TestAdultsScaleAgreement runs the three variants on a mid-sized Adults instance (10k rows, 6-attribute QI) and
// checks they agree exactly — the oracle tests cover correctness on small
// random instances; this guards the realistic regime. Skipped with -short.
func TestAdultsScaleAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	d := dataset.Adults(10000, 3)
	cols, hs, err := d.QISubset(6)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput(d.Table, cols, hs, 5, 0)

	basic, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if len(basic.Solutions) == 0 {
		t.Fatal("no solutions at k=5 on 10k rows; generator or search broken")
	}
	for _, v := range []Variant{SuperRoots, Cube} {
		res, err := Run(in, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != len(basic.Solutions) {
			t.Fatalf("%v found %d solutions, basic %d", v, len(res.Solutions), len(basic.Solutions))
		}
	}

	// Applying the minimal solution yields a verifiably k-anonymous view of
	// the full row count (no suppression configured).
	view, err := in.Apply(basic.Solutions[0])
	if err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != d.Table.NumRows() {
		t.Fatalf("view rows = %d, want %d", view.NumRows(), d.Table.NumRows())
	}
}

// TestLandsEndScaleSmoke exercises the high-cardinality regime (31,953
// zipcode pool) end to end. Skipped with -short.
func TestLandsEndScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	d := dataset.LandsEnd(20000, 3)
	cols, hs, err := d.QISubset(4)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput(d.Table, cols, hs, 10, 50)
	res, err := Run(in, SuperRoots)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) == 0 {
		t.Fatal("no solutions with a 50-tuple suppression threshold")
	}
	view, err := in.Apply(res.Solutions[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Table.NumRows()-view.NumRows() > 50 {
		t.Fatalf("suppressed %d tuples, threshold 50", d.Table.NumRows()-view.NumRows())
	}
}
