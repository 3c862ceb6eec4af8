package incognito_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	incognito "incognito"
)

func TestDimensionRowsHierarchy(t *testing.T) {
	tab, err := incognito.NewTable(
		[]string{"Zip"},
		[][]string{{"53715"}, {"53710"}, {"53706"}, {"53703"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"53715", "5371*", "537**"},
		{"53710", "5371*", "537**"},
		{"53706", "5370*", "537**"},
		{"53703", "5370*", "537**"},
	}
	res, err := incognito.Anonymize(tab, []incognito.QI{
		{Column: "Zip", Hierarchy: incognito.DimensionRows(rows, []string{"Zip4", "Zip3"})},
	}, incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each base zip is unique, level 1 groups pairs: levels 1 and 2 qualify.
	want := [][]int{{1}, {2}}
	var got [][]int
	for _, s := range res.Solutions() {
		got = append(got, s.Levels())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("solutions = %v, want %v", got, want)
	}
	if name := res.Solutions()[0].LevelNames()[0]; name != "Zip4" {
		t.Fatalf("custom level name = %q, want Zip4", name)
	}
}

func TestDimensionRowsErrorsSurfaceFromAnonymize(t *testing.T) {
	tab, err := incognito.NewTable([]string{"Zip"}, [][]string{{"53715"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := incognito.DimensionRows([][]string{{"only-base"}}, nil)
	if _, err := incognito.Anonymize(tab, []incognito.QI{{Column: "Zip", Hierarchy: bad}}, incognito.Config{K: 1}); err == nil {
		t.Fatal("invalid dimension rows accepted")
	}
	// A table value missing from the rows fails at bind time.
	partial := incognito.DimensionRows([][]string{{"99999", "*"}}, nil)
	if _, err := incognito.Anonymize(tab, []incognito.QI{{Column: "Zip", Hierarchy: partial}}, incognito.Config{K: 1}); err == nil {
		t.Fatal("non-covering dimension rows accepted")
	}
}

func TestDimensionCSVHierarchy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zip.csv")
	csv := "zip,zip4,zip3\n53715,5371*,537**\n53710,5371*,537**\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := incognito.NewTable([]string{"Zip"}, [][]string{{"53715"}, {"53710"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := incognito.Anonymize(tab, []incognito.QI{
		{Column: "Zip", Hierarchy: incognito.DimensionCSV(path)},
	}, incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("solutions = %d, want 2", res.Len())
	}
	missing := incognito.DimensionCSV(filepath.Join(t.TempDir(), "nope.csv"))
	if _, err := incognito.Anonymize(tab, []incognito.QI{{Column: "Zip", Hierarchy: missing}}, incognito.Config{K: 2}); err == nil {
		t.Fatal("missing CSV accepted")
	}
}
