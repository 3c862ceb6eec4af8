package core

import (
	"reflect"
	"testing"

	"incognito/internal/hierarchy"
	"incognito/internal/relation"
)

// TestQIOverReorderedColumns exercises the mapping between QI positions and
// table columns: the quasi-identifier lists Zipcode before Sex, both
// positioned after non-QI columns, and results must match the canonical
// Patients run modulo the attribute reordering.
func TestQIOverReorderedColumns(t *testing.T) {
	// Columns: Disease (non-QI), Zipcode, Note (non-QI), Sex, Birthdate.
	tab, err := relation.FromRows(
		[]string{"Disease", "Zipcode", "Note", "Sex", "Birthdate"},
		[][]string{
			{"Flu", "53715", "n1", "Male", "1/21/76"},
			{"Hepatitis", "53715", "n2", "Female", "4/13/86"},
			{"Brochitis", "53703", "n3", "Male", "2/28/76"},
			{"Broken Arm", "53703", "n4", "Male", "1/21/76"},
			{"Sprained Ankle", "53706", "n5", "Female", "4/13/86"},
			{"Hang Nail", "53706", "n6", "Female", "2/28/76"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	zipCol, sexCol, bdCol := 1, 3, 4
	zh, err := hierarchy.RoundDigitsSpec("Z", 2).Bind(tab.Dict(zipCol))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := hierarchy.Taxonomy("S", map[string]string{"Male": "Person", "Female": "Person"}).Bind(tab.Dict(sexCol))
	if err != nil {
		t.Fatal(err)
	}
	bh, err := hierarchy.SuppressionSpec("B").Bind(tab.Dict(bdCol))
	if err != nil {
		t.Fatal(err)
	}
	// QI order: Zipcode, Sex, Birthdate (a permutation of the canonical
	// Birthdate, Sex, Zipcode).
	in := NewInput(tab, []int{zipCol, sexCol, bdCol},
		[]*hierarchy.Hierarchy{zh, sh, bh}, 2, 0)
	res, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical solutions (B,S,Z): {1,1,0},{0,1,2},{1,0,2},{1,1,1},{1,1,2}.
	// In (Z,S,B) order that is {0,1,1},{2,1,0},{2,0,1},{1,1,1},{2,1,1}.
	want := [][]int{
		{0, 1, 1},
		{2, 0, 1},
		{1, 1, 1},
		{2, 1, 0},
		{2, 1, 1},
	}
	SortSolutions(want)
	if !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %v, want %v", res.Solutions, want)
	}

	// Apply must generalize the right columns and pass the others through.
	view, err := in.Apply([]int{0, 1, 1}) // Zip intact, Sex→Person, Birthdate→*
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < view.NumRows(); r++ {
		if view.Value(r, 3) != "Person" || view.Value(r, 4) != "*" {
			t.Fatalf("row %d QI not generalized: %v", r, view.Row(r))
		}
		if view.Value(r, 2) != tab.Value(r, 2) || view.Value(r, 0) != tab.Value(r, 0) {
			t.Fatalf("row %d non-QI columns changed: %v", r, view.Row(r))
		}
		if view.Value(r, 1) != tab.Value(r, 1) {
			t.Fatalf("row %d Zipcode (level 0) changed: %v", r, view.Row(r))
		}
	}
}

// TestAllVariantsOnReorderedColumns runs every variant on the permuted
// instance to catch column-mapping bugs in the per-variant root providers.
func TestAllVariantsOnReorderedColumns(t *testing.T) {
	tab, err := relation.FromRows(
		[]string{"Pad", "B", "A"},
		[][]string{
			{"x", "b1", "a1"}, {"y", "b1", "a1"},
			{"z", "b2", "a2"}, {"w", "b2", "a2"},
			{"v", "b2", "a1"}, {"u", "b1", "a2"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := hierarchy.SuppressionSpec("A").Bind(tab.Dict(2))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hierarchy.SuppressionSpec("B").Bind(tab.Dict(1))
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput(tab, []int{2, 1}, []*hierarchy.Hierarchy{ha, hb}, 2, 0)
	want := exhaustive(&in)
	for _, v := range []Variant{Basic, SuperRoots, Cube} {
		res, err := Run(in, v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Solutions, want) {
			t.Fatalf("%v on reordered columns: %v, want %v", v, res.Solutions, want)
		}
	}
}
