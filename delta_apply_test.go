package incognito_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	incognito "incognito"
	"incognito/internal/dataset"
	"incognito/internal/relation"
)

// applyRowDeltaOracle is the string-keyed row edit: every row is packed
// into one string key, deletions are matched on those keys, and the kept
// and added rows are re-encoded one by one through AppendRow. It is the
// reference ApplyRowDelta's code-keyed edit must reproduce exactly —
// columns, rows, every dictionary's code order and every error text.
func applyRowDeltaOracle(t *incognito.Table, add, del [][]string) (*relation.Table, error) {
	cols := t.Columns()
	for _, r := range append(append([][]string{}, add...), del...) {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("incognito: delta row has %d values, table has %d columns", len(r), len(cols))
		}
	}
	pack := func(vals []string) string {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		}
		return string(b)
	}
	pending := make(map[string]int, len(del))
	for _, r := range del {
		pending[pack(r)]++
	}
	out := relation.MustNewTable(cols...)
	for i := 0; i < t.NumRows(); i++ {
		row := t.Row(i)
		if key := pack(row); pending[key] > 0 {
			pending[key]--
			continue
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	for _, r := range del {
		if pending[pack(r)] > 0 {
			return nil, fmt.Errorf("incognito: delta deletes row %v more times than the table contains it", r)
		}
	}
	for _, r := range add {
		if err := out.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkApplyRowDelta runs ApplyRowDelta and the oracle on one edit and
// fails unless both refuse it with the same text or both build the same
// table, dictionaries included. It reports whether the edit applied.
func checkApplyRowDelta(t *testing.T, tab *incognito.Table, add, del [][]string) bool {
	t.Helper()
	want, wantErr := applyRowDeltaOracle(tab, add, del)
	got, err := incognito.ApplyRowDelta(tab, add, del)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ApplyRowDelta error %v, oracle error %v\nadd=%q\ndel=%q", err, wantErr, add, del)
		}
		return false
	}
	rel := got.Relation()
	if !reflect.DeepEqual(rel.Columns(), want.Columns()) {
		t.Fatalf("columns %q, oracle %q", rel.Columns(), want.Columns())
	}
	if !reflect.DeepEqual(rel.Rows(), want.Rows()) {
		t.Fatalf("rows %q, oracle %q\nadd=%q\ndel=%q", rel.Rows(), want.Rows(), add, del)
	}
	for c := range want.Columns() {
		if g, w := rel.Dict(c).Values(), want.Dict(c).Values(); !reflect.DeepEqual(g, w) {
			t.Fatalf("column %d dictionary %q, oracle %q", c, g, w)
		}
	}
	return true
}

// deltaEditValues are cell values chosen to break any separator- or
// quoting-based row key: CSV metacharacters, a newline, NUL, the empty
// string and a multi-byte rune.
var deltaEditValues = []string{"a", "b", "", ",", `"`, "a,b", "x\ny", "\x00", "q\"\x00,", "é"}

// randomEditTable draws a table whose rows repeat often (few values per
// column), so deletions hit duplicates.
func randomEditTable(t *testing.T, rng *rand.Rand, cols, rows int) *incognito.Table {
	t.Helper()
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("C%d", c)
	}
	recs := make([][]string, rows)
	for r := range recs {
		recs[r] = randomEditRow(rng, cols)
	}
	tab, err := incognito.NewTable(names, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func randomEditRow(rng *rand.Rand, cols int) []string {
	row := make([]string, cols)
	for c := range row {
		row[c] = deltaEditValues[rng.Intn(4+c)]
	}
	return row
}

// TestApplyRowDeltaMatchesOracle holds the code-keyed edit to the
// string-keyed oracle on random tables, cycling through the edits that
// matter: deletions of duplicated rows, a deletion that removes the last
// occurrence of a value (which must drop it from the dictionary),
// deleting a row the table lacks, deleting a row more often than it
// occurs, and unconstrained mixes.
func TestApplyRowDeltaMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var applied, refused, lastGone int
	for iter := 0; iter < 400; iter++ {
		cols := 1 + rng.Intn(3)
		tab := randomEditTable(t, rng, cols, rng.Intn(30))
		rows := tab.Rows()
		var add, del [][]string
		for i := rng.Intn(4); i > 0; i-- {
			row := randomEditRow(rng, cols)
			if rng.Intn(3) == 0 {
				row[rng.Intn(cols)] = "added-only"
			}
			add = append(add, row)
		}
		switch iter % 5 {
		case 0: // distinct positions, so always applicable
			for _, i := range rng.Perm(len(rows))[:rng.Intn(len(rows)+1)] {
				del = append(del, rows[i])
			}
		case 1: // a value whose only occurrence is deleted
			once := randomEditRow(rng, cols)
			once[rng.Intn(cols)] = "once"
			var err error
			if tab, err = incognito.NewTable(tab.Columns(), append(rows, once)); err != nil {
				t.Fatal(err)
			}
			del = append(del, once)
		case 2: // a row the table does not hold
			absent := randomEditRow(rng, cols)
			absent[rng.Intn(cols)] = "absent"
			if len(rows) > 0 && rng.Intn(2) == 0 {
				// Values the dictionaries hold, in a combination the table
				// usually lacks.
				for c := range absent {
					absent[c] = rows[rng.Intn(len(rows))][c]
				}
			}
			del = append(del, absent)
		case 3: // more deletions of a row than it has occurrences
			if len(rows) == 0 {
				continue
			}
			row := rows[rng.Intn(len(rows))]
			n := 0
			for _, r := range rows {
				if reflect.DeepEqual(r, row) {
					n++
				}
			}
			for i := 0; i <= n; i++ {
				del = append(del, row)
			}
		default: // draws with replacement: duplicates, sometimes too many
			for i := rng.Intn(6); i > 0 && len(rows) > 0; i-- {
				del = append(del, rows[rng.Intn(len(rows))])
			}
		}
		if checkApplyRowDelta(t, tab, add, del) {
			applied++
			if iter%5 == 1 {
				lastGone++
			}
		} else {
			refused++
		}
	}
	if applied < 100 || refused < 100 || lastGone < 50 {
		t.Fatalf("weak coverage: %d edits applied, %d refused, %d removed a value's last occurrence", applied, refused, lastGone)
	}
}

// FuzzApplyRowDelta is the oracle comparison over fuzz-chosen tables and
// edits: each input byte picks a shape, a value or a row to delete.
func FuzzApplyRowDelta(f *testing.F) {
	f.Add([]byte{1, 6, 0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 2, 3, 0, 2, 4, 1})
	f.Add([]byte{2, 4, 5, 5, 5, 5, 5, 5, 5, 5, 1, 3, 0, 0, 0})
	f.Add([]byte{0, 3, 9, 8, 7, 0, 4, 1, 3, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		cols := 1 + next()%3
		// Table rows draw from the pool; delta rows may also carry a value
		// the pool lacks, so no dictionary holds it.
		row := func(pool int) []string {
			r := make([]string, cols)
			for c := range r {
				if i := next() % pool; i < len(deltaEditValues) {
					r[c] = deltaEditValues[i]
				} else {
					r[c] = "absent"
				}
			}
			return r
		}
		names := make([]string, cols)
		for c := range names {
			names[c] = fmt.Sprintf("C%d", c)
		}
		recs := make([][]string, next()%16)
		for r := range recs {
			recs[r] = row(len(deltaEditValues))
		}
		tab, err := incognito.NewTable(names, recs)
		if err != nil {
			t.Fatal(err)
		}
		add := make([][]string, next()%4)
		for i := range add {
			add[i] = row(len(deltaEditValues) + 1)
		}
		del := make([][]string, next()%6)
		for i := range del {
			if b := next(); b%2 == 0 && len(recs) > 0 {
				del[i] = recs[(b/2)%len(recs)]
			} else {
				del[i] = row(len(deltaEditValues) + 1)
			}
		}
		checkApplyRowDelta(t, tab, add, del)
	})
}

// TestApplyRowDeltaAllocsDoNotGrowPerRow gates ApplyRowDelta's heap
// allocations on one fixed edit — 23 rows deleted and 23 duplicated, about
// 1% of the smaller table — applied to the first 4,522 rows of Adults and
// to all 45,222. Kept rows are copied as codes into pre-sized columns, so
// ten times the rows may cost a few more allocations where a dictionary or
// map grows, never one per row.
func TestApplyRowDeltaAllocsDoNotGrowPerRow(t *testing.T) {
	d := dataset.Adults(dataset.AdultsDefaultRows, 1)
	rows := d.Table.Rows()
	big, err := incognito.NewTable(d.Table.Columns(), rows)
	if err != nil {
		t.Fatal(err)
	}
	small, err := incognito.NewTable(d.Table.Columns(), rows[:4522])
	if err != nil {
		t.Fatal(err)
	}
	var add, del [][]string
	for i := 0; i < 4522; i += 200 {
		del = append(del, rows[i])
		add = append(add, rows[i+1])
	}
	allocs := func(tab *incognito.Table) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := incognito.ApplyRowDelta(tab, add, del); err != nil {
				t.Fatal(err)
			}
		})
	}
	s, b := allocs(small), allocs(big)
	t.Logf("ApplyRowDelta of %d+%d rows: %.0f allocations on %d rows, %.0f on %d rows",
		len(add), len(del), s, small.NumRows(), b, big.NumRows())
	if b > s+64 {
		t.Fatalf("ApplyRowDelta allocations grow with the kept rows: %.0f on %d rows, %.0f on %d rows",
			s, small.NumRows(), b, big.NumRows())
	}
}
