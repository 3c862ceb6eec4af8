package core

// This file implements incremental re-anonymization. A completed run can
// capture a RunState: the base-level frequency set as value-string groups
// plus one NodeRecord per checked lattice node (exact counts for the
// groups near k, a floor for the rest, and bounds on the suppression
// tally). A later delta run — the same table edited by a small set of
// added/removed rows — replays the Basic search over the new table but
// answers most k-anonymity checks from the records instead of computing
// frequency sets:
//
//   - every delta row's contribution to a node's groups is known exactly
//     from the record's band, or bounded by its floor;
//   - when the resulting tally bounds stay on one side of the suppression
//     threshold, the node's verdict on the edited table is known exactly
//     and the frequency set is never materialized;
//   - otherwise the node is revalidated for real, rolling up from its
//     recorded parent or from the patched base-level set.
//
// Every verdict the screen emits is exact, so the delta run's control flow
// — marks, queue order, rollup parents — is identical to a cold run over
// the edited table, and the screened path bumps the same Stats counters at
// the same points. Solutions and Stats are therefore bit-identical to a
// cold recomputation by construction; only the work (rows scanned, nodes
// materialized) shrinks, which DeltaCounters reports separately.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// captureBandSlack is how far above k the capture threshold starts: groups
// with count < k+captureBandSlack get exact band entries, so deltas moving
// a group by less than the slack screen exactly.
const captureBandSlack = 64

// captureBandCap bounds the band size per node; when more groups fall
// under the threshold, the threshold shrinks until the band fits (screening
// then leans on the floor for the dropped groups).
const captureBandCap = 1024

// appendNodeRecKey appends the key identifying a lattice node across runs
// and bindings — "dims|levels", each list comma-separated — to buf.
func appendNodeRecKey(buf []byte, dims, levels []int) []byte {
	for i, d := range dims {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(d), 10)
	}
	buf = append(buf, '|')
	for i, l := range levels {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(l), 10)
	}
	return buf
}

// StateCapture collects NodeRecords as a run checks nodes, for persisting
// as a RunState. Observe is called from the search workers under a mutex;
// Records returns the collection in canonical (dims, levels) order so the
// serialized state is independent of worker scheduling.
type StateCapture struct {
	mu      sync.Mutex
	records []resilience.NodeRecord
}

// Observe captures a NodeRecord for a node whose frequency set f was just
// checked. No-op on a nil capture.
func (c *StateCapture) Observe(in *Input, node *lattice.Node, f *relation.FreqSet) {
	if c == nil {
		return
	}
	rec := buildRecord(in, node.Dims, node.Levels, f)
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.mu.Unlock()
}

// add appends an already-built record (the delta screen's updated records).
func (c *StateCapture) add(rec resilience.NodeRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.mu.Unlock()
}

// Records returns the captured records sorted by (dims, levels).
func (c *StateCapture) Records() []resilience.NodeRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]resilience.NodeRecord(nil), c.records...)
	c.mu.Unlock()
	sortRecords(out)
	return out
}

// sortRecords orders records by their node keys (compared as strings),
// computing each key once.
func sortRecords(recs []resilience.NodeRecord) {
	type keyed struct {
		key string
		rec resilience.NodeRecord
	}
	ks := make([]keyed, len(recs))
	var buf []byte
	for i, r := range recs {
		buf = appendNodeRecKey(buf[:0], r.Dims, r.Levels)
		ks[i] = keyed{key: string(buf), rec: r}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i := range ks {
		recs[i] = ks[i].rec
	}
}

// buildRecord summarizes a node's frequency set: the exact suppression
// tally, exact counts for every group under the capture threshold (value
// strings, so the record survives dictionary rebuilds), and the minimum
// count among the remaining groups.
func buildRecord(in *Input, dims, levels []int, f *relation.FreqSet) resilience.NodeRecord {
	k := in.K
	thr := k + captureBandSlack
	type cand struct {
		codes []int32
		n     int64
	}
	var cands []cand
	floor := int64(math.MaxInt64)
	f.Each(func(codes []int32, count int64) {
		if count < thr {
			cands = append(cands, cand{codes: append([]int32(nil), codes...), n: count})
		} else if count < floor {
			floor = count
		}
	})
	if len(cands) > captureBandCap {
		sort.Slice(cands, func(i, j int) bool { return cands[i].n < cands[j].n })
		thr = cands[captureBandCap].n
		for _, c := range cands[captureBandCap:] {
			if c.n < floor {
				floor = c.n
			}
		}
		// Ties at the new threshold straddle the cap boundary; keep only
		// the groups strictly under it so the band is downward-closed.
		kept := cands[:0]
		for _, c := range cands[:captureBandCap] {
			if c.n < thr {
				kept = append(kept, c)
			} else if c.n < floor {
				floor = c.n
			}
		}
		cands = kept
	}
	rec := resilience.NodeRecord{
		Dims:    append([]int(nil), dims...),
		Levels:  append([]int(nil), levels...),
		Thr:     thr,
		Floor:   floor,
		TallyLo: f.TuplesBelow(k),
	}
	rec.TallyHi = rec.TallyLo
	for _, c := range cands {
		vals := make([]string, len(dims))
		for i, d := range dims {
			vals[i] = in.QI[d].H.Value(levels[i], c.codes[i])
		}
		rec.Band = append(rec.Band, resilience.BandEntry{V: vals, N: c.n})
	}
	slices.SortFunc(rec.Band, cmpBand)
	return rec
}

// cmpVals orders equal-length value tuples elementwise — the band's
// canonical order. The screen merges a node's delta groups, which it sorts
// into the same order by code, against the band (see updateRecord).
func cmpVals(a, b []string) int {
	for i := range a {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func cmpBand(a, b resilience.BandEntry) int { return cmpVals(a.V, b.V) }

// cmpBaseValue orders two values of one attribute the way base groups are
// stored: by the bytes of their length-prefixed encodings, each value
// written as its length in four little-endian bytes and then its bytes. It
// compares without encoding either value. Base groups compare value by
// value in this order.
func cmpBaseValue(a, b string) int {
	if len(a) != len(b) {
		for s := 0; s < 32; s += 8 {
			if x, y := byte(len(a)>>s), byte(len(b)>>s); x != y {
				return cmp.Compare(x, y)
			}
		}
	}
	return strings.Compare(a, b)
}

// baseOrder returns the indices of n base groups in stored order. Group
// g's codes in dicts are codes[g*len(dicts):(g+1)*len(dicts)]. Each
// dictionary is ranked in cmpBaseValue order once, so the sort itself
// compares integers.
func baseOrder(dicts []*relation.Dict, codes []int32, n int) []int32 {
	ranks := make([][]int32, len(dicts))
	for i, dict := range dicts {
		vals := dict.Values()
		byValue := make([]int32, len(vals))
		for c := range byValue {
			byValue[c] = int32(c)
		}
		slices.SortFunc(byValue, func(a, b int32) int { return cmpBaseValue(vals[a], vals[b]) })
		rank := make([]int32, len(vals))
		for r, c := range byValue {
			rank[c] = int32(r)
		}
		ranks[i] = rank
	}
	w := len(dicts)
	order := make([]int32, n)
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := codes[int(a)*w:], codes[int(b)*w:]
		for i, rank := range ranks {
			if c := cmp.Compare(rank[ca[i]], rank[cb[i]]); c != 0 {
				return c
			}
		}
		return 0
	})
	return order
}

// baseDicts returns the input's base-level dictionary per QI attribute.
func baseDicts(in *Input) []*relation.Dict {
	dicts := make([]*relation.Dict, len(in.QI))
	for i, q := range in.QI {
		dicts[i] = q.H.Dict(0)
	}
	return dicts
}

// CaptureBase renders the table's base-level frequency set over the full
// quasi-identifier as value-string groups — the persistent mergeable state
// a delta run patches instead of rescanning. It scans the table once,
// outside the run's Stats accounting.
func CaptureBase(in *Input) []resilience.BaseGroup {
	w := len(in.QI)
	dims := make([]int, w)
	for i := range dims {
		dims[i] = i
	}
	f := relation.GroupCount(in.Table, in.cols(dims), nil)
	var codes []int32
	var counts []int64
	f.Each(func(c []int32, count int64) {
		codes = append(codes, c...)
		counts = append(counts, count)
	})
	if len(counts) == 0 {
		return nil
	}
	dicts := baseDicts(in)
	vals := make([]string, len(codes))
	out := make([]resilience.BaseGroup, len(counts))
	for j, g := range baseOrder(dicts, codes, len(counts)) {
		v := vals[j*w : (j+1)*w : (j+1)*w]
		for i, dict := range dicts {
			v[i] = dict.Value(codes[int(g)*w+i])
		}
		out[j] = resilience.BaseGroup{V: v, N: counts[g]}
	}
	return out
}

// DeltaRow is one added or removed row of a delta, pre-generalized:
// Gen[d][l] is the row's value in QI attribute d at hierarchy level l
// (Gen[d][0] is the base value). Callers compute Gen through the
// hierarchies' level functions, so removed rows whose values no longer
// appear in the edited table's dictionaries generalize exactly like they
// did in the original binding.
type DeltaRow struct {
	Gen [][]string
}

// DeltaCounters reports how much work a delta run actually did, next to
// the replayed Stats (which are bit-identical to a cold run by design and
// therefore say nothing about savings).
type DeltaCounters struct {
	// RowsRescanned counts table rows the delta run genuinely scanned: the
	// delta rows themselves, plus a whole-table equivalent for every root
	// frequency set it had to materialize from the patched base state.
	RowsRescanned int64 `json:"rows_rescanned"`
	// NodesScreened counts checked nodes whose verdict came from a
	// NodeRecord without materializing a frequency set.
	NodesScreened int64 `json:"nodes_screened"`
	// NodesRevalidated counts checked nodes that needed a real frequency
	// set (no record, or the delta left the verdict in doubt).
	NodesRevalidated int64 `json:"nodes_revalidated"`
}

// DeltaRun configures an incremental re-anonymization on Input.Delta: the
// RunState a prior run retained, and the rows added to / removed from the
// table that state describes. The run's Input must hold the edited table;
// only the Basic variant supports delta runs, and memory budgets are
// rejected (Run validates all of this).
type DeltaRun struct {
	State   *resilience.RunState
	Added   []DeltaRow
	Removed []DeltaRow

	st *deltaState
}

// Counters returns the work counters of the last prepared run.
func (d *DeltaRun) Counters() DeltaCounters {
	if d == nil || d.st == nil {
		return DeltaCounters{}
	}
	return DeltaCounters{
		RowsRescanned:    d.st.rowsRescanned.Load(),
		NodesScreened:    d.st.screened.Load(),
		NodesRevalidated: d.st.revalidated.Load(),
	}
}

// BaseGroups returns the patched base-level frequency set as canonical
// value-string groups — the Base of the state describing the edited table.
func (d *DeltaRun) BaseGroups() []resilience.BaseGroup {
	st := d.st
	w := len(st.dicts)
	codes := make([]int32, 0, len(st.f0)*w)
	for _, e := range st.f0 {
		codes = append(codes, e.codes...)
	}
	out := make([]resilience.BaseGroup, 0, len(st.f0))
	for _, g := range baseOrder(st.dicts, codes, len(st.f0)) {
		out = append(out, resilience.BaseGroup{V: st.f0[g].vals, N: st.f0[g].count})
	}
	return out
}

// UntouchedRecords returns the prior state's records for nodes this run
// never visited (marked away, or behind a resumed checkpoint), each
// patched with the delta's group contributions so the full output state
// uniformly describes the edited table. Call after the run completes.
func (d *DeltaRun) UntouchedRecords(in *Input) []resilience.NodeRecord {
	st := d.st
	var out []resilience.NodeRecord
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, i := range st.records {
		if st.touched[i] {
			continue
		}
		upd, _ := st.updateRecord(st.recs[i], in.K, in.MaxSuppress)
		out = append(out, upd)
	}
	sortRecords(out)
	return out
}

// f0Entry is one group of the patched base-level frequency set, carried in
// both forms: value strings (shared with the prior state's Base where the
// group existed, for the output state) and the edited table's dictionary
// codes (for building root sets).
type f0Entry struct {
	vals  []string
	codes []int32
	count int64
}

// deltaState is the runtime of one delta run: the prior state and the
// delta in code form. Value strings stay where the output state needs them
// and where a node's delta groups meet its band; grouping delta rows and
// patching base counts compare integers only.
type deltaState struct {
	recs []*resilience.NodeRecord
	// records maps a node key (appendNodeRecKey) to its index in recs.
	records map[string]int
	f0      []f0Entry
	dicts   []*relation.Dict // the edited table's base dictionaries, per QI attribute

	// rows holds the delta rows' generalized values as run-local codes:
	// row r's value in attribute d at level l is rows[r*width+off[d]+l].
	// The first nAdded rows are the added ones, the rest the removed ones.
	// Each (d, l) numbers its distinct delta values in string order, so
	// comparing codes compares values; vals[off[d]+l][code] is the value.
	rows   []int32
	width  int
	off    []int
	vals   [][]string
	nAdded int
	// addedOld[i] reports whether added row i's full-QI base-level group
	// existed in the prior table. When it did, every node-level group the
	// row lands in existed too (projection and generalization only merge
	// groups), which turns pure additions to off-band groups into exact
	// no-ops: the old count was ≥ Thr ≥ k, so the new count still is.
	addedOld []bool

	mu      sync.Mutex
	touched []bool // per recs entry: screened or revalidated this run

	rowsRescanned atomic.Int64
	screened      atomic.Int64
	revalidated   atomic.Int64
	// Wall time spent in screen and in forcing deferred parent sets, summed
	// over workers; runSearch records both on its search span.
	screenNS atomic.Int64
	forceNS  atomic.Int64
}

// Trace counters a delta run records on its search span: nanoseconds
// spent in the record screen and in forced revalidation (force), summed
// over workers. Timed per node, recorded once per search, so a delta
// run's trace does not grow with the lattice.
const (
	CounterDeltaScreenNS = "delta_screen_ns"
	CounterDeltaForceNS  = "delta_force_ns"
)

// prepare validates the state against the input and builds the runtime:
// the record index, the patched base-level set rebound to the edited
// table's dictionary codes, and the delta rows in code form.
func (d *DeltaRun) prepare(in *Input) error {
	st := d.State
	if st == nil {
		return fmt.Errorf("core: delta run has no prior state")
	}
	if st.K != in.K || st.MaxSuppress != in.MaxSuppress {
		return fmt.Errorf("core: saved state has k=%d, suppress=%d; this run has k=%d, suppress=%d",
			st.K, st.MaxSuppress, in.K, in.MaxSuppress)
	}
	if len(st.Cols) != len(in.QI) {
		return fmt.Errorf("core: saved state covers %d QI attributes, this run has %d", len(st.Cols), len(in.QI))
	}
	for i, q := range in.QI {
		if st.Cols[i] != q.H.Attr() {
			return fmt.Errorf("core: saved state QI attribute %d is %q, this run has %q", i, st.Cols[i], q.H.Attr())
		}
	}
	if want := st.Rows + len(d.Added) - len(d.Removed); want != in.Table.NumRows() {
		return fmt.Errorf("core: saved state covers %d rows and the delta nets %+d, but the table has %d rows",
			st.Rows, len(d.Added)-len(d.Removed), in.Table.NumRows())
	}
	for _, rows := range [][]DeltaRow{d.Added, d.Removed} {
		for _, r := range rows {
			if len(r.Gen) != len(in.QI) {
				return fmt.Errorf("core: delta row generalizes %d attributes, the QI has %d", len(r.Gen), len(in.QI))
			}
			for i, q := range in.QI {
				if len(r.Gen[i]) != q.H.Height()+1 {
					return fmt.Errorf("core: delta row has %d levels of attribute %q, its hierarchy has %d",
						len(r.Gen[i]), q.H.Attr(), q.H.Height()+1)
				}
			}
		}
	}
	rt := &deltaState{
		recs:    make([]*resilience.NodeRecord, len(st.Records)),
		records: make(map[string]int, len(st.Records)),
		touched: make([]bool, len(st.Records)),
		dicts:   baseDicts(in),
	}
	// Every record key goes into one string; the map keys are its slices.
	var keys []byte
	ends := make([]int, len(st.Records))
	for i := range st.Records {
		rec := &st.Records[i]
		if err := checkRecord(in, rec); err != nil {
			return err
		}
		if !slices.IsSortedFunc(rec.Band, cmpBand) {
			// The screen needs the canonical band order, and a state file
			// may predate it. Sort a copy: the state may be shared.
			cp := *rec
			cp.Band = slices.Clone(rec.Band)
			slices.SortFunc(cp.Band, cmpBand)
			rec = &cp
		}
		rt.recs[i] = rec
		keys = appendNodeRecKey(keys, rec.Dims, rec.Levels)
		ends[i] = len(keys)
	}
	all, start := string(keys), 0
	for i, end := range ends {
		rt.records[all[start:end]] = i
		start = end
	}
	if err := rt.patchBase(st.Base, d.Added, d.Removed, in.Table.NumRows()); err != nil {
		return err
	}
	rt.internRows(in, d.Added, d.Removed)
	rt.rowsRescanned.Store(int64(len(d.Added) + len(d.Removed)))
	d.st = rt
	return nil
}

// checkRecord rejects a saved record that does not name a node of this
// run's lattice, or whose band tuples do not match the node's attributes,
// before the screen indexes by it.
func checkRecord(in *Input, rec *resilience.NodeRecord) error {
	ok := len(rec.Dims) > 0 && len(rec.Levels) == len(rec.Dims)
	for i := 0; ok && i < len(rec.Dims); i++ {
		d := rec.Dims[i]
		ok = d >= 0 && d < len(in.QI) && (i == 0 || d > rec.Dims[i-1]) &&
			rec.Levels[i] >= 0 && rec.Levels[i] <= in.QI[d].H.Height()
	}
	for _, e := range rec.Band {
		ok = ok && len(e.V) == len(rec.Dims)
	}
	if !ok {
		return fmt.Errorf("core: saved state record %s does not fit this run's lattice", appendNodeRecKey(nil, rec.Dims, rec.Levels))
	}
	return nil
}

// patchBase rebinds the state's base groups to the edited table's
// dictionary codes, one value→code lookup per value, and adds ±1 per delta
// row. Counts are patched in a map keyed by packed codes. A value the
// edited table does not hold gets a run-local code past the end of its
// dictionary: it may occur in removed rows and emptied groups, but a
// patched group that still has rows must not use it.
func (st *deltaState) patchBase(base []resilience.BaseGroup, added, removed []DeltaRow, rows int) error {
	w := len(st.dicts)
	extra := make([]map[string]int32, w)
	code := func(i int, v string) int32 {
		if c, ok := st.dicts[i].Code(v); ok {
			return c
		}
		c, ok := extra[i][v]
		if !ok {
			if extra[i] == nil {
				extra[i] = make(map[string]int32)
			}
			c = int32(st.dicts[i].Len() + len(extra[i]))
			extra[i][v] = c
		}
		return c
	}
	type acc struct {
		vals  []string
		codes []int32
		count int64
	}
	groups := make([]acc, len(base), len(base)+len(added))
	codes := make([]int32, len(base)*w)
	keys := make([]byte, 0, 4*len(codes))
	for g, bg := range base {
		if len(bg.V) != w {
			return fmt.Errorf("core: saved state base group has %d values, the QI has %d", len(bg.V), w)
		}
		c := codes[g*w : (g+1)*w : (g+1)*w]
		for i, v := range bg.V {
			c[i] = code(i, v)
		}
		groups[g] = acc{vals: bg.V, codes: c, count: bg.N}
		keys = relation.AppendKey(keys, c)
	}
	// The map keys are slices of one string; only groups the delta creates
	// allocate their own.
	index := make(map[string]int, len(base))
	all := string(keys)
	for g := range base {
		key := all[4*w*g : 4*w*(g+1)]
		if j, dup := index[key]; dup {
			groups[j].count = groups[g].count
			continue
		}
		index[key] = g
	}
	st.addedOld = make([]bool, len(added))
	buf := make([]byte, 0, 4*w)
	rowCodes := make([]int32, w)
	bump := func(row DeltaRow, by int64) (existed bool) {
		for i := range row.Gen {
			rowCodes[i] = code(i, row.Gen[i][0])
		}
		buf = relation.AppendKey(buf[:0], rowCodes)
		j, ok := index[string(buf)]
		if !ok {
			vals := make([]string, w)
			for i := range row.Gen {
				vals[i] = row.Gen[i][0]
			}
			j = len(groups)
			groups = append(groups, acc{vals: vals, codes: slices.Clone(rowCodes)})
			index[string(buf)] = j
		}
		groups[j].count += by
		return j < len(base)
	}
	for i, r := range added {
		st.addedOld[i] = bump(r, 1)
	}
	for _, r := range removed {
		bump(r, -1)
	}
	var total int64
	st.f0 = make([]f0Entry, 0, len(groups))
	for _, g := range groups {
		if g.count < 0 {
			return fmt.Errorf("core: delta removes more %v rows than the saved state holds", g.vals)
		}
		if g.count == 0 {
			continue
		}
		for i, c := range g.codes {
			if int(c) >= st.dicts[i].Len() {
				return fmt.Errorf("core: saved state group value %q is absent from the edited table", g.vals[i])
			}
		}
		st.f0 = append(st.f0, f0Entry{vals: g.vals, codes: g.codes, count: g.count})
		total += g.count
	}
	if total != int64(rows) {
		return fmt.Errorf("core: patched base state covers %d rows, the edited table has %d — the state does not describe this table",
			total, rows)
	}
	return nil
}

// internRows puts the delta rows in code form (see deltaState.rows), with
// one run-local interner per (attribute, level).
func (st *deltaState) internRows(in *Input, added, removed []DeltaRow) {
	st.off = make([]int, len(in.QI))
	for d, q := range in.QI {
		st.off[d] = st.width
		st.width += q.H.Height() + 1
	}
	rows := append(append(make([]DeltaRow, 0, len(added)+len(removed)), added...), removed...)
	st.nAdded = len(added)
	st.rows = make([]int32, len(rows)*st.width)
	st.vals = make([][]string, st.width)
	for d, q := range in.QI {
		for l := 0; l <= q.H.Height(); l++ {
			col := st.off[d] + l
			intern := make(map[string]int32)
			var vals []string
			for _, r := range rows {
				v := r.Gen[d][l]
				if _, ok := intern[v]; !ok {
					intern[v] = 0
					vals = append(vals, v)
				}
			}
			sort.Strings(vals)
			for c, v := range vals {
				intern[v] = int32(c)
			}
			for i, r := range rows {
				st.rows[i*st.width+col] = intern[r.Gen[d][l]]
			}
			st.vals[col] = vals
		}
	}
}

// gdelta is the net contribution of the delta rows to one group of a node.
type gdelta struct {
	row int // one of the group's delta rows; its codes name the group
	add int64
	del int64
	// pre reports the group provably existed in the prior table: some
	// added row landing in it had a pre-existing base-level group (see
	// deltaState.addedOld). Deletions imply existence on their own.
	pre bool
}

// groupDeltas folds the delta rows into per-group contributions at the
// node's generalization. The rows are sorted by their codes at the node —
// integer comparisons only — so the groups come out in cmpVals order of
// their value tuples.
func (st *deltaState) groupDeltas(dims, levels []int) []gdelta {
	cols := make([]int, len(dims))
	for i, d := range dims {
		cols[i] = st.off[d] + levels[i]
	}
	order := make([]int32, len(st.rows)/st.width)
	for r := range order {
		order[r] = int32(r)
	}
	cmpRows := func(a, b int32) int {
		ra, rb := st.rows[int(a)*st.width:], st.rows[int(b)*st.width:]
		for _, c := range cols {
			if x := cmp.Compare(ra[c], rb[c]); x != 0 {
				return x
			}
		}
		return 0
	}
	slices.SortFunc(order, cmpRows)
	var out []gdelta
	for j, r := range order {
		if j == 0 || cmpRows(order[j-1], r) != 0 {
			out = append(out, gdelta{row: int(r)})
		}
		g := &out[len(out)-1]
		if int(r) < st.nAdded {
			g.add++
			if st.addedOld[r] {
				g.pre = true
			}
		} else {
			g.del++
		}
	}
	return out
}

// Verdicts of updateRecord.
const (
	verdictUnknown = iota
	verdictPass
	verdictFail
)

// updateRecord applies the delta's per-group contributions to a node's
// record, returning the record describing the edited table plus the
// k-anonymity verdict when the updated tally bounds decide it. Band hits
// update exactly; groups covered only by the floor widen the tally bounds
// by the worst case a group near k can contribute. All updates are
// commutative, so the order groups are applied in cannot change the result.
func (st *deltaState) updateRecord(rec *resilience.NodeRecord, k, maxSuppress int64) (resilience.NodeRecord, int) {
	contrib := func(x int64) int64 {
		if x > 0 && x < k {
			return x
		}
		return 0
	}
	// The groups arrive in cmpVals order and the band is sorted by cmpVals,
	// so each group's band entry is found by searching only the band past
	// the previous group's position.
	newBand := make([]resilience.BandEntry, len(rec.Band))
	copy(newBand, rec.Band)
	vals := make([]string, len(rec.Dims))
	next := 0
	inBand := func(gd gdelta) *resilience.BandEntry {
		for i, d := range rec.Dims {
			col := st.off[d] + rec.Levels[i]
			vals[i] = st.vals[col][st.rows[gd.row*st.width+col]]
		}
		rest := newBand[next:]
		i := sort.Search(len(rest), func(i int) bool { return cmpVals(rest[i].V, vals) >= 0 })
		next += i
		if i < len(rest) && cmpVals(rest[i].V, vals) == 0 {
			next++
			return &rest[i]
		}
		return nil
	}
	lo, hi := int64(0), int64(0)
	floor := rec.Floor
	inconsistent := false
	for _, gd := range st.groupDeltas(rec.Dims, rec.Levels) {
		delta := gd.add - gd.del
		if e := inBand(gd); e != nil {
			nn := e.N + delta
			if nn < 0 {
				inconsistent = true
				nn = 0
			}
			ch := contrib(nn) - contrib(e.N)
			lo += ch
			hi += ch
			e.N = nn
			continue
		}
		if gd.del > 0 {
			// The group existed (rows were removed from it) but is not in
			// the band, so its old count is at least Floor ≥ Thr.
			if rec.Floor == math.MaxInt64 {
				inconsistent = true
				continue
			}
			switch {
			case rec.Floor >= k && rec.Floor+delta >= k:
				// Old and new counts both provably ≥ k: tally unchanged.
				if f := rec.Floor + delta; f < floor {
					floor = f
				}
			case rec.Floor >= k:
				hi += k - 1
				floor = 1
			default:
				lo -= k - 1
				hi += k - 1
				floor = 1
			}
			continue
		}
		// Pure additions to a group that is either new or above the band.
		if gd.pre && rec.Floor != math.MaxInt64 {
			// The group provably pre-existed; off the band, its old count
			// was ≥ Thr ≥ k, so old and new counts both contribute nothing
			// to the tally and the new count exceeds the old Floor. Exact.
			continue
		}
		switch {
		case rec.Floor >= k && delta >= k:
			// New count is ≥ k whether the group existed or not.
			if delta < floor {
				floor = delta
			}
		case rec.Floor >= k:
			hi += delta // a brand-new group of `delta` undersized tuples
			if delta < floor {
				floor = delta
			}
		default:
			lo -= k - 1
			hi += min64(delta, k-1)
			if delta < floor {
				floor = delta
			}
		}
	}
	upd := resilience.NodeRecord{
		Dims:    append([]int(nil), rec.Dims...),
		Levels:  append([]int(nil), rec.Levels...),
		Thr:     rec.Thr,
		Floor:   floor,
		TallyLo: rec.TallyLo + lo,
		TallyHi: rec.TallyHi + hi,
	}
	if upd.TallyLo < 0 {
		upd.TallyLo = 0
	}
	for _, e := range newBand {
		if e.N != 0 {
			upd.Band = append(upd.Band, e) // stays in cmpVals order
		}
	}
	verdict := verdictUnknown
	if !inconsistent {
		switch {
		case upd.TallyHi <= maxSuppress:
			verdict = verdictPass
		case upd.TallyLo > maxSuppress:
			verdict = verdictFail
		}
	}
	return upd, verdict
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// screen attempts to decide a node's k-anonymity verdict on the edited
// table from its record alone. ok reports whether the verdict is exact; a
// false ok means the caller must revalidate (no record, or the tally
// bounds straddle the threshold). On success the updated record is fed to
// the input's capture, so the new state reflects the edited table.
func (st *deltaState) screen(in *Input, node *lattice.Node) (pass, ok bool) {
	i, found := st.record(node)
	if !found {
		return false, false
	}
	upd, verdict := st.updateRecord(st.recs[i], in.K, in.MaxSuppress)
	if verdict == verdictUnknown {
		return false, false
	}
	st.mu.Lock()
	st.touched[i] = true
	st.mu.Unlock()
	in.Capture.add(upd)
	st.screened.Add(1)
	return verdict == verdictPass, true
}

// record returns the index of node's record in the prior state.
func (st *deltaState) record(node *lattice.Node) (int, bool) {
	var buf [64]byte
	i, ok := st.records[string(appendNodeRecKey(buf[:0], node.Dims, node.Levels))]
	return i, ok
}

// noteRevalidated marks a node as freshly measured this run: its old
// record (if any) is superseded by the capture's Observe, not reconciled.
func (st *deltaState) noteRevalidated(node *lattice.Node) {
	if i, ok := st.record(node); ok {
		st.mu.Lock()
		st.touched[i] = true
		st.mu.Unlock()
	}
	st.revalidated.Add(1)
}

// rootFromF0 builds a root node's frequency set by rolling the patched
// base-level set up to the node's generalization — the delta substitute
// for a base-table scan, identical by the rollup property. The kernel
// choice mirrors what a real scan of the table would pick, so downstream
// behavior cannot depend on how the set was produced.
func (st *deltaState) rootFromF0(in *Input, n *lattice.Node) *relation.FreqSet {
	cols := in.cols(n.Dims)
	card := in.cardAt(n.Dims, n.Levels)
	var f *relation.FreqSet
	if card != nil && relation.DenseEligible(card, in.Table.NumRows()) {
		f = relation.NewFreqSetWithCard(cols, card)
	} else {
		f = relation.NewFreqSet(cols)
	}
	maps := in.recodeTables(n.Dims, n.Levels)
	codes := make([]int32, len(n.Dims))
	for _, e := range st.f0 {
		for i, d := range n.Dims {
			c := e.codes[d]
			if m := maps[i]; m != nil {
				c = m[c]
			}
			codes[i] = c
		}
		f.Add(codes, e.count)
	}
	st.rowsRescanned.Add(int64(in.Table.NumRows()))
	return f
}

// force materializes the frequency set of a screened-failed node whose set
// was deferred (freqs holds nil): it walks the rollup-parent chain down to
// a root, builds the root from the patched base state, and rolls back up,
// filling freqs along the way. This work re-derives what the replayed
// Stats already charged for, so it is deliberately uncounted there.
func (st *deltaState) force(in *Input, g *lattice.Graph, parentOf map[int]int, freqs map[int]*relation.FreqSet, n *lattice.Node) *relation.FreqSet {
	if f, ok := freqs[n.ID]; ok && f != nil {
		return f
	}
	var f *relation.FreqSet
	if pid, ok := parentOf[n.ID]; ok {
		parent := g.Node(pid)
		pf := freqs[pid]
		if pf == nil {
			pf = st.force(in, g, parentOf, freqs, parent)
		}
		f = in.RollupTo(pf, n.Dims, parent.Levels, n.Levels)
	} else {
		f = st.rootFromF0(in, n)
	}
	if _, tracked := freqs[n.ID]; tracked {
		freqs[n.ID] = f
	}
	return f
}
