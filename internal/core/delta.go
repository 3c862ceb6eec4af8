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
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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

// packStrings packs value strings into one length-prefixed map key (the
// string analogue of relation's packKey; value strings may contain any
// byte, so a separator would not be safe).
func packStrings(vals []string) string {
	var b strings.Builder
	var n [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
		b.Write(n[:])
		b.WriteString(v)
	}
	return b.String()
}

// nodeRecKey identifies a lattice node across runs and bindings.
func nodeRecKey(dims, levels []int) string {
	var b strings.Builder
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte('|')
	for i, l := range levels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", l)
	}
	return b.String()
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

func sortRecords(recs []resilience.NodeRecord) {
	sort.Slice(recs, func(i, j int) bool {
		return nodeRecKey(recs[i].Dims, recs[i].Levels) < nodeRecKey(recs[j].Dims, recs[j].Levels)
	})
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
	sortBand(rec.Band)
	return rec
}

// cmpVals orders equal-length value tuples elementwise — the band's
// canonical order, chosen so the screen can binary-search a node's band
// without packing keys (the screen runs once per node per delta run, and
// packing every band entry there dominated the delta run's wall clock).
func cmpVals(a, b []string) int {
	for i := range a {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func sortBand(band []resilience.BandEntry) {
	sort.Slice(band, func(i, j int) bool {
		return cmpVals(band[i].V, band[j].V) < 0
	})
}

// CaptureBase renders the table's base-level frequency set over the full
// quasi-identifier as value-string groups — the persistent mergeable state
// a delta run patches instead of rescanning. It scans the table once,
// outside the run's Stats accounting.
func CaptureBase(in *Input) []resilience.BaseGroup {
	dims := make([]int, len(in.QI))
	for i := range dims {
		dims[i] = i
	}
	f := relation.GroupCount(in.Table, in.cols(dims), nil)
	var out []resilience.BaseGroup
	f.Each(func(codes []int32, count int64) {
		vals := make([]string, len(dims))
		for i, d := range dims {
			vals[i] = in.QI[d].H.Value(0, codes[i])
		}
		out = append(out, resilience.BaseGroup{V: vals, N: count})
	})
	sort.Slice(out, func(i, j int) bool { return packStrings(out[i].V) < packStrings(out[j].V) })
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
	out := make([]resilience.BaseGroup, 0, len(d.st.f0))
	for _, e := range d.st.f0 {
		out = append(out, resilience.BaseGroup{V: e.vals, N: e.count})
	}
	sort.Slice(out, func(i, j int) bool { return packStrings(out[i].V) < packStrings(out[j].V) })
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
	touched := st.touched
	st.mu.Unlock()
	for key, rec := range st.records {
		if touched[key] {
			continue
		}
		node := &lattice.Node{Dims: rec.Dims, Levels: rec.Levels}
		upd, _ := updateRecord(rec, st.groupDeltas(node), in.K, in.MaxSuppress)
		out = append(out, upd)
	}
	sortRecords(out)
	return out
}

// f0Entry is one group of the patched base-level frequency set, carried in
// both forms: value strings (binding-independent, for the output state)
// and the edited table's dictionary codes (for building root sets).
type f0Entry struct {
	vals  []string
	codes []int32
	count int64
}

// deltaState is the runtime of one delta run.
type deltaState struct {
	records map[string]*resilience.NodeRecord
	f0      []f0Entry
	added   []DeltaRow
	removed []DeltaRow
	// addedOld[i] reports whether added row i's full-QI base-level group
	// existed in the prior table. When it did, every node-level group the
	// row lands in existed too (projection and generalization only merge
	// groups), which turns pure additions to off-band groups into exact
	// no-ops: the old count was ≥ Thr ≥ k, so the new count still is.
	addedOld []bool

	mu      sync.Mutex
	touched map[string]bool

	rowsRescanned atomic.Int64
	screened      atomic.Int64
	revalidated   atomic.Int64
}

// prepare validates the state against the input and builds the runtime:
// the record index and the patched base-level set encoded against the
// edited table's dictionaries.
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
		}
	}
	rt := &deltaState{
		records: make(map[string]*resilience.NodeRecord, len(st.Records)),
		added:   d.Added,
		removed: d.Removed,
		touched: make(map[string]bool),
	}
	for i := range st.Records {
		rec := &st.Records[i]
		// Restore the canonical band order: the screen binary-searches it,
		// and a state file may predate the current comparator.
		sortBand(rec.Band)
		rt.records[nodeRecKey(rec.Dims, rec.Levels)] = rec
	}

	// Patch the base-level set: state groups plus ±1 per delta row, pruned
	// at zero, then encoded once against the edited table's dictionaries.
	type acc struct {
		vals  []string
		count int64
	}
	groups := make(map[string]*acc, len(st.Base))
	oldBase := make(map[string]bool, len(st.Base))
	for _, g := range st.Base {
		key := packStrings(g.V)
		groups[key] = &acc{vals: g.V, count: g.N}
		oldBase[key] = true
	}
	rt.addedOld = make([]bool, len(d.Added))
	for i, r := range d.Added {
		vals := make([]string, len(r.Gen))
		for j := range r.Gen {
			vals[j] = r.Gen[j][0]
		}
		rt.addedOld[i] = oldBase[packStrings(vals)]
	}
	bump := func(row DeltaRow, by int64) {
		vals := make([]string, len(row.Gen))
		for i := range row.Gen {
			vals[i] = row.Gen[i][0]
		}
		key := packStrings(vals)
		a := groups[key]
		if a == nil {
			a = &acc{vals: vals}
			groups[key] = a
		}
		a.count += by
		if a.count == 0 {
			delete(groups, key)
		}
	}
	for _, r := range d.Added {
		bump(r, 1)
	}
	for _, r := range d.Removed {
		bump(r, -1)
	}
	var total int64
	for _, a := range groups {
		if a.count < 0 {
			return fmt.Errorf("core: delta removes more %v rows than the saved state holds", a.vals)
		}
		codes := make([]int32, len(in.QI))
		for i, q := range in.QI {
			c, ok := q.H.Dict(0).Code(a.vals[i])
			if !ok {
				return fmt.Errorf("core: saved state group value %q is absent from the edited table", a.vals[i])
			}
			codes[i] = c
		}
		rt.f0 = append(rt.f0, f0Entry{vals: a.vals, codes: codes, count: a.count})
		total += a.count
	}
	if total != int64(in.Table.NumRows()) {
		return fmt.Errorf("core: patched base state covers %d rows, the edited table has %d — the state does not describe this table",
			total, in.Table.NumRows())
	}
	sort.Slice(rt.f0, func(i, j int) bool { return packStrings(rt.f0[i].vals) < packStrings(rt.f0[j].vals) })
	rt.rowsRescanned.Store(int64(len(d.Added) + len(d.Removed)))
	d.st = rt
	return nil
}

// gdelta is the net contribution of the delta rows to one group of a node.
type gdelta struct {
	vals []string // the group's generalized value tuple
	add  int64
	del  int64
	// pre reports the group provably existed in the prior table: some
	// added row landing in it had a pre-existing base-level group (see
	// deltaState.addedOld). Deletions imply existence on their own.
	pre bool
}

// groupDeltas folds the delta rows into per-group contributions at the
// node's generalization, keyed by packed generalized value strings.
func (st *deltaState) groupDeltas(node *lattice.Node) map[string]*gdelta {
	out := make(map[string]*gdelta)
	vals := make([]string, len(node.Dims))
	at := func(row DeltaRow) string {
		for i, d := range node.Dims {
			vals[i] = row.Gen[d][node.Levels[i]]
		}
		return packStrings(vals)
	}
	for i, r := range st.added {
		key := at(r)
		g := out[key]
		if g == nil {
			g = &gdelta{vals: append([]string(nil), vals...)}
			out[key] = g
		}
		g.add++
		if st.addedOld[i] {
			g.pre = true
		}
	}
	for _, r := range st.removed {
		key := at(r)
		g := out[key]
		if g == nil {
			g = &gdelta{vals: append([]string(nil), vals...)}
			out[key] = g
		}
		g.del++
	}
	return out
}

// Verdicts of updateRecord.
const (
	verdictUnknown = iota
	verdictPass
	verdictFail
)

// updateRecord applies per-group delta contributions to a node's record,
// returning the record describing the edited table plus the k-anonymity
// verdict when the updated tally bounds decide it. Band hits update
// exactly; groups covered only by the floor widen the tally bounds by the
// worst case a group near k can contribute. All updates are commutative,
// so map iteration order cannot change the result.
func updateRecord(rec *resilience.NodeRecord, deltas map[string]*gdelta, k, maxSuppress int64) (resilience.NodeRecord, int) {
	contrib := func(x int64) int64 {
		if x > 0 && x < k {
			return x
		}
		return 0
	}
	// The band is kept sorted by cmpVals, so each delta group resolves by
	// binary search — no per-node key packing or map build.
	newBand := make([]resilience.BandEntry, len(rec.Band))
	copy(newBand, rec.Band)
	inBand := func(vals []string) *resilience.BandEntry {
		i := sort.Search(len(newBand), func(i int) bool { return cmpVals(newBand[i].V, vals) >= 0 })
		if i < len(newBand) && cmpVals(newBand[i].V, vals) == 0 {
			return &newBand[i]
		}
		return nil
	}
	lo, hi := int64(0), int64(0)
	floor := rec.Floor
	inconsistent := false
	for _, gd := range deltas {
		delta := gd.add - gd.del
		if e := inBand(gd.vals); e != nil {
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
			upd.Band = append(upd.Band, e)
		}
	}
	sortBand(upd.Band)
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
	key := nodeRecKey(node.Dims, node.Levels)
	rec := st.records[key]
	if rec == nil {
		return false, false
	}
	upd, verdict := updateRecord(rec, st.groupDeltas(node), in.K, in.MaxSuppress)
	if verdict == verdictUnknown {
		return false, false
	}
	st.mu.Lock()
	st.touched[key] = true
	st.mu.Unlock()
	in.Capture.add(upd)
	st.screened.Add(1)
	return verdict == verdictPass, true
}

// noteRevalidated marks a node as freshly measured this run: its old
// record (if any) is superseded by the capture's Observe, not reconciled.
func (st *deltaState) noteRevalidated(node *lattice.Node) {
	st.mu.Lock()
	st.touched[nodeRecKey(node.Dims, node.Levels)] = true
	st.mu.Unlock()
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
