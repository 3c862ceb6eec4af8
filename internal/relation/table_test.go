package relation

import (
	"strings"
	"testing"
)

func patients() *Table {
	// The Hospital Patient Data table from Figure 1 of the paper.
	t, err := FromRows(
		[]string{"Birthdate", "Sex", "Zipcode", "Disease"},
		[][]string{
			{"1/21/76", "Male", "53715", "Flu"},
			{"4/13/86", "Female", "53715", "Hepatitis"},
			{"2/28/76", "Male", "53703", "Brochitis"},
			{"1/21/76", "Male", "53703", "Broken Arm"},
			{"4/13/86", "Female", "53706", "Sprained Ankle"},
			{"2/28/76", "Female", "53706", "Hang Nail"},
		},
	)
	if err != nil {
		panic(err)
	}
	return t
}

func TestNewTableRejectsBadSchemas(t *testing.T) {
	if _, err := NewTable(); err == nil {
		t.Fatal("NewTable() with no columns succeeded")
	}
	if _, err := NewTable("a", "a"); err == nil {
		t.Fatal("NewTable with duplicate column names succeeded")
	}
	if _, err := NewTable("a", ""); err == nil {
		t.Fatal("NewTable with an empty column name succeeded")
	}
}

func TestAppendRowArityChecked(t *testing.T) {
	tab := MustNewTable("a", "b")
	if err := tab.AppendRow([]string{"1"}); err == nil {
		t.Fatal("AppendRow with wrong arity succeeded")
	}
	if err := tab.AppendRow([]string{"1", "2", "3"}); err == nil {
		t.Fatal("AppendRow with wrong arity succeeded")
	}
	if tab.NumRows() != 0 {
		t.Fatalf("failed appends changed row count to %d", tab.NumRows())
	}
}

func TestTableRoundTrip(t *testing.T) {
	p := patients()
	if p.NumRows() != 6 || p.NumCols() != 4 {
		t.Fatalf("got %dx%d table, want 6x4", p.NumRows(), p.NumCols())
	}
	if got := p.Value(0, p.ColumnIndex("Disease")); got != "Flu" {
		t.Fatalf("Value(0, Disease) = %q, want Flu", got)
	}
	if got := p.Value(5, p.ColumnIndex("Sex")); got != "Female" {
		t.Fatalf("Value(5, Sex) = %q, want Female", got)
	}
	row := p.Row(3)
	want := []string{"1/21/76", "Male", "53703", "Broken Arm"}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("Row(3) = %v, want %v", row, want)
		}
	}
}

func TestColumnIndex(t *testing.T) {
	p := patients()
	if p.ColumnIndex("Zipcode") != 2 {
		t.Fatalf("ColumnIndex(Zipcode) = %d, want 2", p.ColumnIndex("Zipcode"))
	}
	if p.ColumnIndex("Nope") != -1 {
		t.Fatal("ColumnIndex of a missing column should be -1")
	}
}

func TestDictionarySharingAcrossRows(t *testing.T) {
	p := patients()
	sex := p.ColumnIndex("Sex")
	if p.Dict(sex).Len() != 2 {
		t.Fatalf("Sex dictionary has %d entries, want 2", p.Dict(sex).Len())
	}
	// Rows 0 and 2 are both Male and must share a code.
	if p.Code(0, sex) != p.Code(2, sex) {
		t.Fatal("equal values received different codes")
	}
}

func TestSelect(t *testing.T) {
	p := patients()
	sex := p.ColumnIndex("Sex")
	males := p.Select(func(r int) bool { return p.Value(r, sex) == "Male" })
	if males.NumRows() != 3 {
		t.Fatalf("Select kept %d rows, want 3", males.NumRows())
	}
	for r := 0; r < males.NumRows(); r++ {
		if males.Value(r, sex) != "Male" {
			t.Fatalf("row %d is %q", r, males.Value(r, sex))
		}
	}
	// Original table untouched.
	if p.NumRows() != 6 {
		t.Fatal("Select mutated the source table")
	}
}

func TestProject(t *testing.T) {
	p := patients()
	q, err := p.Project("Zipcode", "Sex")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumCols() != 2 || q.Columns()[0] != "Zipcode" {
		t.Fatalf("Project schema = %v", q.Columns())
	}
	if q.Value(0, 0) != "53715" || q.Value(0, 1) != "Male" {
		t.Fatalf("Project row 0 = %v", q.Row(0))
	}
	if _, err := p.Project("Missing"); err == nil {
		t.Fatal("Project of a missing column succeeded")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := patients()
	c := p.Clone()
	_ = c.AppendRow([]string{"9/9/99", "Male", "00000", "None"})
	if p.NumRows() != 6 || c.NumRows() != 7 {
		t.Fatalf("clone not independent: %d vs %d rows", p.NumRows(), c.NumRows())
	}
}

func TestAppendCodedValidatesCodes(t *testing.T) {
	tab := MustNewTable("a")
	tab.Dict(0).Encode("x")
	if err := tab.AppendCoded([]int32{0}); err != nil {
		t.Fatalf("valid AppendCoded failed: %v", err)
	}
	if err := tab.AppendCoded([]int32{7}); err == nil {
		t.Fatal("AppendCoded with unknown code succeeded")
	}
	if err := tab.AppendCoded([]int32{0, 0}); err == nil {
		t.Fatal("AppendCoded with wrong arity succeeded")
	}
	if tab.Value(0, 0) != "x" {
		t.Fatalf("decoded value = %q, want x", tab.Value(0, 0))
	}
}

func TestRowsMaterialization(t *testing.T) {
	p := patients()
	rows := p.Rows()
	if len(rows) != 6 {
		t.Fatalf("Rows() returned %d records", len(rows))
	}
	if strings.Join(rows[1], ",") != "4/13/86,Female,53715,Hepatitis" {
		t.Fatalf("Rows()[1] = %v", rows[1])
	}
}

// TestEditMatchesReencoding checks Edit builds the table re-encoding the
// kept rows and then the added records through AppendRow would build —
// rows and dictionary code order alike — including when the only
// occurrence of a value is dropped.
func TestEditMatchesReencoding(t *testing.T) {
	src := patients()
	drop := []int{0, 2, src.NumRows() - 1}
	add := [][]string{{"9/9/99", "Male", "53715", "Flu"}, src.Row(2)}
	got, err := src.Edit(drop, add)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNewTable(src.Columns()...)
	for r, next := 0, 0; r < src.NumRows(); r++ {
		if next < len(drop) && drop[next] == r {
			next++
			continue
		}
		if err := want.AppendRow(src.Row(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range add {
		if err := want.AppendRow(rec); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := got.Rows(), want.Rows(); len(g) != len(w) {
		t.Fatalf("edit has %d rows, want %d", len(g), len(w))
	}
	for r := 0; r < want.NumRows(); r++ {
		if strings.Join(got.Row(r), "|") != strings.Join(want.Row(r), "|") {
			t.Fatalf("row %d is %q, want %q", r, got.Row(r), want.Row(r))
		}
	}
	for c := range want.Columns() {
		if g, w := strings.Join(got.Dict(c).Values(), "|"), strings.Join(want.Dict(c).Values(), "|"); g != w {
			t.Fatalf("column %d dictionary %q, want %q", c, g, w)
		}
	}
}

func TestEditRejectsBadInput(t *testing.T) {
	src := patients()
	for _, drop := range [][]int{{-1}, {src.NumRows()}, {2, 1}, {1, 1}} {
		if _, err := src.Edit(drop, nil); err == nil {
			t.Errorf("drop list %v accepted", drop)
		}
	}
	if _, err := src.Edit(nil, [][]string{{"too", "short"}}); err == nil {
		t.Error("short added record accepted")
	}
}
