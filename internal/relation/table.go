package relation

import (
	"errors"
	"fmt"
)

// Table is a dictionary-encoded, column-oriented relation. Rows are
// multisets of tuples, as in the paper's data model; there are no keys and
// duplicate rows are meaningful (they contribute to frequency-set counts).
type Table struct {
	names []string
	index map[string]int
	dicts []*Dict
	cols  [][]int32
	rows  int
}

// NewTable creates an empty table with the given column names.
func NewTable(columns ...string) (*Table, error) {
	if len(columns) == 0 {
		return nil, errors.New("relation: table needs at least one column")
	}
	t := &Table{
		names: append([]string(nil), columns...),
		index: make(map[string]int, len(columns)),
		dicts: make([]*Dict, len(columns)),
		cols:  make([][]int32, len(columns)),
	}
	for i, name := range columns {
		if name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := t.index[name]; dup {
			return nil, fmt.Errorf("relation: duplicate column name %q", name)
		}
		t.index[name] = i
		t.dicts[i] = NewDict()
	}
	return t, nil
}

// MustNewTable is NewTable for statically known schemas; it panics on error.
func MustNewTable(columns ...string) *Table {
	t, err := NewTable(columns...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromRows builds a table from string records. Every record must have
// exactly one value per column.
func FromRows(columns []string, records [][]string) (*Table, error) {
	t, err := NewTable(columns...)
	if err != nil {
		return nil, err
	}
	for i, rec := range records {
		if err := t.AppendRow(rec); err != nil {
			return nil, fmt.Errorf("relation: record %d: %w", i, err)
		}
	}
	return t, nil
}

// AppendRow appends one record, encoding each value through the column's
// dictionary.
func (t *Table) AppendRow(record []string) error {
	if len(record) != len(t.names) {
		return fmt.Errorf("relation: record has %d values, table has %d columns", len(record), len(t.names))
	}
	for i, v := range record {
		t.cols[i] = append(t.cols[i], t.dicts[i].Encode(v))
	}
	t.rows++
	return nil
}

// AppendCoded appends one record of pre-encoded codes. The codes must have
// been produced by this table's dictionaries (used by generators that
// pre-register their vocabularies).
func (t *Table) AppendCoded(codes []int32) error {
	if len(codes) != len(t.names) {
		return fmt.Errorf("relation: coded record has %d values, table has %d columns", len(codes), len(t.names))
	}
	for i, c := range codes {
		if c < 0 || int(c) >= t.dicts[i].Len() {
			return fmt.Errorf("relation: column %q: code %d not in dictionary", t.names[i], c)
		}
		t.cols[i] = append(t.cols[i], c)
	}
	t.rows++
	return nil
}

// NumRows returns the number of tuples in the table.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of columns in the table.
func (t *Table) NumCols() int { return len(t.names) }

// Columns returns the column names in schema order. The slice is shared.
func (t *Table) Columns() []string { return t.names }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.index[name]; ok {
		return i
	}
	return -1
}

// Dict returns the dictionary for column col.
func (t *Table) Dict(col int) *Dict { return t.dicts[col] }

// Codes returns the code vector for column col. The slice is shared;
// callers must treat it as read-only.
func (t *Table) Codes(col int) []int32 { return t.cols[col] }

// Code returns the code at (row, col).
func (t *Table) Code(row, col int) int32 { return t.cols[col][row] }

// Value returns the decoded string at (row, col).
func (t *Table) Value(row, col int) string { return t.dicts[col].Value(t.cols[col][row]) }

// Row materializes row r as strings.
func (t *Table) Row(r int) []string {
	out := make([]string, len(t.names))
	for c := range t.names {
		out[c] = t.Value(r, c)
	}
	return out
}

// Rows materializes the whole table as string records (mostly for tests and
// small outputs; large tables should be streamed through WriteCSV).
func (t *Table) Rows() [][]string {
	out := make([][]string, t.rows)
	for r := 0; r < t.rows; r++ {
		out[r] = t.Row(r)
	}
	return out
}

// newRemap returns an old-code → new-code translation table with every
// entry marked "not yet seen in the output" (-1).
func newRemap(n int) []int32 {
	m := make([]int32, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// remapCode translates one code through the remap table, registering the
// decoded value in the destination dictionary the first time it survives —
// so output codes keep the order-of-first-appearance semantics AppendRow
// would have produced, at one string decode per distinct surviving value
// instead of one per cell.
func remapCode(remap []int32, src, dst *Dict, c int32) int32 {
	if nc := remap[c]; nc >= 0 {
		return nc
	}
	nc := dst.Encode(src.Value(c))
	remap[c] = nc
	return nc
}

// Select returns a new table containing exactly the rows for which keep
// returns true, preserving order. Dictionaries are rebuilt so the result is
// self-contained: codes are copied directly and remapped per column, never
// round-tripped through strings row by row.
func (t *Table) Select(keep func(row int) bool) *Table {
	return t.selectRows(keep, 0)
}

// selectRows is Select with each output column pre-sized to hold capacity
// rows.
func (t *Table) selectRows(keep func(row int) bool, capacity int) *Table {
	out := MustNewTable(t.names...)
	remaps := make([][]int32, len(t.names))
	for c := range t.names {
		remaps[c] = newRemap(t.dicts[c].Len())
		out.cols[c] = make([]int32, 0, capacity)
	}
	for r := 0; r < t.rows; r++ {
		if !keep(r) {
			continue
		}
		for c := range t.names {
			out.cols[c] = append(out.cols[c], remapCode(remaps[c], t.dicts[c], out.dicts[c], t.cols[c][r]))
		}
		out.rows++
	}
	return out
}

// Edit returns a new table holding t's rows minus the rows listed in drop
// (strictly ascending row indices), in order, followed by the add records.
// The kept rows are copied as codes, as Select copies them, so every
// dictionary lists the kept rows' values in order of first appearance and
// then the added rows' new values: the same table appending each kept row
// and then each added record through AppendRow would build.
func (t *Table) Edit(drop []int, add [][]string) (*Table, error) {
	for i, r := range drop {
		if r < 0 || r >= t.rows || (i > 0 && r <= drop[i-1]) {
			return nil, fmt.Errorf("relation: drop list is not ascending row indices in [0,%d)", t.rows)
		}
	}
	for i, rec := range add {
		if len(rec) != len(t.names) {
			return nil, fmt.Errorf("relation: added record %d has %d values, table has %d columns", i, len(rec), len(t.names))
		}
	}
	next := 0
	out := t.selectRows(func(r int) bool {
		if next < len(drop) && drop[next] == r {
			next++
			return false
		}
		return true
	}, t.rows-len(drop)+len(add))
	for _, rec := range add {
		if err := out.AppendRow(rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Project returns a new table with only the named columns, in the given
// order. Like Select, it copies and remaps code vectors directly.
func (t *Table) Project(columns ...string) (*Table, error) {
	idx := make([]int, len(columns))
	for i, name := range columns {
		j := t.ColumnIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("relation: no column %q", name)
		}
		idx[i] = j
	}
	out, err := NewTable(columns...)
	if err != nil {
		return nil, err
	}
	for i, j := range idx {
		remap := newRemap(t.dicts[j].Len())
		codes := make([]int32, t.rows)
		for r, c := range t.cols[j] {
			codes[r] = remapCode(remap, t.dicts[j], out.dicts[i], c)
		}
		out.cols[i] = codes
	}
	out.rows = t.rows
	return out, nil
}

// Clone returns a deep, independent copy of the table: dictionaries and
// code vectors are copied verbatim, with no re-encoding.
func (t *Table) Clone() *Table {
	out := &Table{
		names: append([]string(nil), t.names...),
		index: make(map[string]int, len(t.names)),
		dicts: make([]*Dict, len(t.names)),
		cols:  make([][]int32, len(t.names)),
		rows:  t.rows,
	}
	for i, name := range t.names {
		out.index[name] = i
		out.dicts[i] = t.dicts[i].Clone()
		out.cols[i] = append([]int32(nil), t.cols[i]...)
	}
	return out
}
