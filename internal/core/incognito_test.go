package core

import (
	"math/rand"
	"reflect"
	"testing"

	"incognito/internal/dataset"
	"incognito/internal/hierarchy"
	"incognito/internal/lattice"
	"incognito/internal/relation"
)

func patientsInput(k, maxSuppress int64) Input {
	d := dataset.Patients()
	return NewInput(d.Table, d.QICols, d.Hierarchies, k, maxSuppress)
}

// exhaustive enumerates all k-anonymous full-domain generalizations by
// scanning the table at every node of the full lattice — the brute-force
// oracle the Incognito variants must agree with (soundness & completeness,
// §3.2).
func exhaustive(in *Input) [][]int {
	full := lattice.NewFull(in.Heights())
	dims := make([]int, len(in.QI))
	for i := range dims {
		dims[i] = i
	}
	var out [][]int
	for id := 0; id < full.Size(); id++ {
		levels := full.Levels(id)
		if in.CheckFreq(in.ScanFreq(dims, levels)) {
			out = append(out, levels)
		}
	}
	SortSolutions(out)
	return out
}

// TestPatientsExample31 replays Example 3.1 end to end: the 2-anonymity
// status of each generalization of ⟨Sex, Zipcode⟩.
func TestPatientsExample31(t *testing.T) {
	in := patientsInput(2, 0)
	sexZip := []int{1, 2} // QI positions of Sex and Zipcode

	check := func(levels []int) bool {
		return in.CheckFreq(in.ScanFreq(sexZip, levels))
	}
	// "the algorithm first generates the frequency set of T with respect to
	// <S0, Z0>, and finds that 2-anonymity is not satisfied".
	if check([]int{0, 0}) {
		t.Fatal("<S0,Z0> should not be 2-anonymous")
	}
	// "Patients is 2-anonymous with respect to <S1, Z0>".
	if !check([]int{1, 0}) {
		t.Fatal("<S1,Z0> should be 2-anonymous")
	}
	// "Patients is not 2-anonymous with respect to <S0, Z1>".
	if check([]int{0, 1}) {
		t.Fatal("<S0,Z1> should not be 2-anonymous")
	}
	// "Finding that Patients is 2-anonymous with respect to <S0, Z2>".
	if !check([]int{0, 2}) {
		t.Fatal("<S0,Z2> should be 2-anonymous")
	}
	// Generalization property consequences: <S1,Z1> and <S1,Z2>.
	if !check([]int{1, 1}) || !check([]int{1, 2}) {
		t.Fatal("generalizations of <S1,Z0> should be 2-anonymous")
	}
}

// TestPatientsSolutions verifies the complete Incognito output on the
// running example: every node of the Fig. 7(a) graph is 2-anonymous
// (⟨B1,S1,Z0⟩ groups by Zipcode alone, with counts 2/2/2), and no other
// generalization qualifies.
func TestPatientsSolutions(t *testing.T) {
	in := patientsInput(2, 0)
	for _, v := range []Variant{Basic, SuperRoots, Cube} {
		res, err := Run(in, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		want := [][]int{
			{1, 1, 0}, // <B1, S1, Z0>
			{0, 1, 2}, // <B0, S1, Z2>
			{1, 0, 2}, // <B1, S0, Z2>
			{1, 1, 1}, // <B1, S1, Z1>
			{1, 1, 2}, // <B1, S1, Z2>
		}
		if !reflect.DeepEqual(res.Solutions, want) {
			t.Fatalf("%v: solutions = %v, want %v", v, res.Solutions, want)
		}
		if res.MinHeight() != 2 {
			t.Fatalf("%v: MinHeight = %d, want 2", v, res.MinHeight())
		}
		if got := res.MinimalSolutions(); len(got) != 1 || !reflect.DeepEqual(got[0], []int{1, 1, 0}) {
			t.Fatalf("%v: minimal solutions = %v, want just <B1,S1,Z0>", v, got)
		}
	}
}

func TestPatientsAgainstOracle(t *testing.T) {
	in := patientsInput(2, 0)
	want := exhaustive(&in)
	res, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("Incognito disagrees with exhaustive search:\ngot  %v\nwant %v", res.Solutions, want)
	}
}

// randomInstance builds a random table over nAttrs categorical attributes
// with random taxonomy-style hierarchies of random heights.
func randomInstance(rng *rand.Rand, nAttrs int, k int64, maxSuppress int64) Input {
	domains := make([]int, nAttrs)
	for i := range domains {
		domains[i] = 2 + rng.Intn(5)
	}
	return randomInstanceOver(rng, domains, k, maxSuppress)
}

// randomInstanceOver is randomInstance over caller-chosen base domain
// sizes; a domain of 1 makes a constant column.
func randomInstanceOver(rng *rand.Rand, domains []int, k int64, maxSuppress int64) Input {
	nAttrs := len(domains)
	names := make([]string, nAttrs)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	t := relation.MustNewTable(names...)
	// Pre-register domains so hierarchies cover all values even if some
	// never occur in rows.
	for i, d := range domains {
		for v := 0; v < d; v++ {
			t.Dict(i).Encode(value(v))
		}
	}
	rows := 5 + rng.Intn(40)
	codes := make([]int32, nAttrs)
	for r := 0; r < rows; r++ {
		for i := range codes {
			codes[i] = int32(rng.Intn(domains[i]))
		}
		if err := t.AppendCoded(codes); err != nil {
			panic(err)
		}
	}
	cols := make([]int, nAttrs)
	hs := make([]*hierarchy.Hierarchy, nAttrs)
	for i := range cols {
		cols[i] = i
		hs[i] = randomHierarchy(rng, t.Dict(i), names[i], domains[i])
	}
	return NewInput(t, cols, hs, k, maxSuppress)
}

func value(v int) string { return string(rune('a' + v)) }

// randomHierarchy builds a random chain of 1-3 levels: each level randomly
// merges the previous level's values, ending at full suppression.
func randomHierarchy(rng *rand.Rand, d *relation.Dict, attr string, domain int) *hierarchy.Hierarchy {
	height := 1 + rng.Intn(3)
	// assign[l][baseValue] = group id at level l, built to be monotone
	// (coarsening) so the chain is a valid DGH.
	cur := make([]int, domain)
	for i := range cur {
		cur[i] = i
	}
	levels := make([]hierarchy.Level, height)
	for l := 0; l < height; l++ {
		groups := 1
		if l < height-1 {
			groups = 1 + rng.Intn(maxInt(1, domain-l))
		}
		merge := make(map[int]int)
		next := make([]int, domain)
		for i := range cur {
			g, ok := merge[cur[i]]
			if !ok {
				g = rng.Intn(groups)
				merge[cur[i]] = g
			}
			next[i] = g
		}
		cur = append([]int(nil), next...)
		snapshot := append([]int(nil), next...)
		name := attr + string(rune('1'+l))
		levels[l] = hierarchy.Level{Name: name, FromBase: func(v string) (string, error) {
			return name + "-g" + string(rune('a'+snapshot[int(v[0]-'a')])), nil
		}}
	}
	h, err := hierarchy.NewSpec(attr, levels...).Bind(d)
	if err != nil {
		panic(err)
	}
	return h
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestVariantsMatchOracleOnRandomInstances is the soundness/completeness
// oracle: on random tables with random hierarchies, every Incognito variant
// must return exactly the set of k-anonymous full-domain generalizations,
// including under suppression thresholds.
func TestVariantsMatchOracleOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 60; trial++ {
		nAttrs := 1 + rng.Intn(4)
		k := int64(1 + rng.Intn(4))
		var sup int64
		if rng.Intn(2) == 1 {
			sup = int64(rng.Intn(4))
		}
		in := randomInstance(rng, nAttrs, k, sup)
		want := exhaustive(&in)
		for _, v := range []Variant{Basic, SuperRoots, Cube} {
			res, err := Run(in, v)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, v, err)
			}
			if !reflect.DeepEqual(res.Solutions, want) {
				t.Fatalf("trial %d (n=%d k=%d sup=%d) %v:\ngot  %v\nwant %v",
					trial, nAttrs, k, sup, v, res.Solutions, want)
			}
		}
	}
}

// TestSuppressionThresholdWidensSolutionSet: raising the threshold can only
// add solutions, and every set remains upward closed.
func TestSuppressionThresholdWidensSolutionSet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 2, 3, 0)
		res0, err := Run(in, Basic)
		if err != nil {
			t.Fatal(err)
		}
		in.MaxSuppress = 3
		res3, err := Run(in, Basic)
		if err != nil {
			t.Fatal(err)
		}
		if len(res3.Solutions) < len(res0.Solutions) {
			t.Fatalf("trial %d: raising threshold lost solutions: %d -> %d",
				trial, len(res0.Solutions), len(res3.Solutions))
		}
		seen := make(map[string]bool)
		for _, s := range res3.Solutions {
			seen[lattice.EncodeKey(s, s)] = true
		}
		for _, s := range res0.Solutions {
			if !seen[lattice.EncodeKey(s, s)] {
				t.Fatalf("trial %d: solution %v lost when threshold raised", trial, s)
			}
		}
	}
}

// TestSolutionSetUpwardClosed: by the generalization property the solution
// set must be an up-set of the full lattice.
func TestSolutionSetUpwardClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 3, 2, 0)
		res, err := Run(in, Basic)
		if err != nil {
			t.Fatal(err)
		}
		full := lattice.NewFull(in.Heights())
		isSol := make(map[int]bool)
		for _, s := range res.Solutions {
			isSol[full.ID(s)] = true
		}
		for _, s := range res.Solutions {
			for _, up := range full.Up(full.ID(s)) {
				if !isSol[up] {
					t.Fatalf("trial %d: solution set not upward closed: %v in, %v out",
						trial, s, full.Levels(up))
				}
			}
		}
	}
}

func TestStatsVariantContracts(t *testing.T) {
	in := patientsInput(2, 0)
	basic, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	super, err := Run(in, SuperRoots)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Run(in, Cube)
	if err != nil {
		t.Fatal(err)
	}
	if basic.Stats.TableScans == 0 || basic.Stats.NodesChecked == 0 {
		t.Fatal("basic run recorded no work")
	}
	// Super-roots never scans more often than Basic (§3.3.1).
	if super.Stats.TableScans > basic.Stats.TableScans {
		t.Fatalf("super-roots scans (%d) exceed basic scans (%d)",
			super.Stats.TableScans, basic.Stats.TableScans)
	}
	// Cube scans the table exactly once, during pre-computation (§3.3.2).
	if cube.Stats.TableScans != 1 {
		t.Fatalf("cube scans = %d, want 1", cube.Stats.TableScans)
	}
	if cube.Stats.CubeFreqSets != (1<<3)-1 {
		t.Fatalf("cube materialized %d frequency sets, want 7", cube.Stats.CubeFreqSets)
	}
	// All variants check the same candidate space.
	if basic.Stats.Candidates != super.Stats.Candidates || basic.Stats.Candidates != cube.Stats.Candidates {
		t.Fatal("variants disagree on candidate counts")
	}
}

func TestRunValidatesInput(t *testing.T) {
	d := dataset.Patients()
	bad := NewInput(d.Table, d.QICols, d.Hierarchies, 0, 0) // k = 0
	if _, err := Run(bad, Basic); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad = NewInput(d.Table, d.QICols, d.Hierarchies, 2, -1)
	if _, err := Run(bad, Basic); err == nil {
		t.Fatal("negative suppression threshold accepted")
	}
	bad = NewInput(d.Table, nil, nil, 2, 0)
	if _, err := Run(bad, Basic); err == nil {
		t.Fatal("empty QI accepted")
	}
	bad = NewInput(d.Table, []int{99}, d.Hierarchies[:1], 2, 0)
	if _, err := Run(bad, Basic); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	bad = NewInput(d.Table, []int{0, 0}, d.Hierarchies[:2], 2, 0)
	if _, err := Run(bad, Basic); err == nil {
		t.Fatal("duplicate QI column accepted")
	}
	// A hierarchy bound to a different dictionary must be rejected.
	other := dataset.Patients()
	bad = NewInput(d.Table, d.QICols, other.Hierarchies, 2, 0)
	if _, err := Run(bad, Basic); err == nil {
		t.Fatal("foreign-bound hierarchy accepted")
	}
}

func TestKLargerThanTable(t *testing.T) {
	in := patientsInput(100, 0)
	res, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Fatalf("k=100 on 6 rows yielded solutions: %v", res.Solutions)
	}
	if res.MinHeight() != -1 {
		t.Fatalf("MinHeight on empty result = %d, want -1", res.MinHeight())
	}
	// With a threshold covering the whole table everything passes.
	in.MaxSuppress = 6
	res, err = Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	full := lattice.NewFull(in.Heights())
	if len(res.Solutions) != full.Size() {
		t.Fatalf("full suppression should make every node a solution: %d vs %d",
			len(res.Solutions), full.Size())
	}
}

func TestSingleAttributeQI(t *testing.T) {
	d := dataset.Patients()
	in := NewInput(d.Table, d.QICols[2:3], d.Hierarchies[2:3], 2, 0)
	res, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	// Zipcode counts are 2/2/2 at base level: all three levels qualify.
	want := [][]int{{0}, {1}, {2}}
	if !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %v, want %v", res.Solutions, want)
	}
}

func TestCubeMatchesDirectScans(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	in := randomInstance(rng, 4, 2, 0)
	cube := BuildCube(&in)
	if cube.NumSets() != 15 {
		t.Fatalf("cube has %d sets, want 15", cube.NumSets())
	}
	// Every subset's zero-generalization frequency set must equal a scan.
	var rec func(dims []int, start int)
	rec = func(dims []int, start int) {
		if len(dims) > 0 {
			zero := make([]int, len(dims))
			direct := in.ScanFreq(dims, zero)
			got := cube.Get(dims)
			if got == nil {
				t.Fatalf("cube missing subset %v", dims)
			}
			if got.Len() != direct.Len() || got.Total() != direct.Total() {
				t.Fatalf("cube set for %v differs from scan", dims)
			}
			direct.Each(func(codes []int32, count int64) {
				if got.Count(codes) != count {
					t.Fatalf("cube set for %v: group %v = %d, want %d", dims, codes, got.Count(codes), count)
				}
			})
		}
		for d := start; d < len(in.QI); d++ {
			rec(append(dims, d), d+1)
		}
	}
	rec(nil, 0)
}

func TestRunWithCubeSeparatesBuildCost(t *testing.T) {
	in := patientsInput(2, 0)
	cube := BuildCube(&in)
	res, err := RunWithCube(in, cube)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TableScans != 0 {
		t.Fatalf("anonymization phase scanned the table %d times; cube should prevent all scans", res.Stats.TableScans)
	}
	full, err := Run(in, Cube)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Solutions, full.Solutions) {
		t.Fatal("RunWithCube and Run(Cube) disagree")
	}
}

func TestApplyPatients(t *testing.T) {
	in := patientsInput(2, 0)
	v, err := in.Apply([]int{1, 1, 1}) // <B1, S1, Z1>
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 6 {
		t.Fatalf("no suppression expected; got %d rows", v.NumRows())
	}
	// Every Birthdate is *, every Sex is Person, every Zipcode is 4-digit+*.
	for r := 0; r < v.NumRows(); r++ {
		if v.Value(r, 0) != "*" {
			t.Fatalf("row %d Birthdate = %q", r, v.Value(r, 0))
		}
		if v.Value(r, 1) != "Person" {
			t.Fatalf("row %d Sex = %q", r, v.Value(r, 1))
		}
		z := v.Value(r, 2)
		if len(z) != 5 || z[4] != '*' || z[3] == '*' {
			t.Fatalf("row %d Zipcode = %q, want one trailing star", r, z)
		}
	}
	// Disease column is carried through untouched.
	if v.Value(0, 3) != "Flu" {
		t.Fatalf("non-QI column changed: %q", v.Value(0, 3))
	}
	// The released view is verifiably 2-anonymous w.r.t. the QI columns.
	f := relation.GroupCount(v, []int{0, 1, 2}, nil)
	if !f.IsKAnonymous(2, 0) {
		t.Fatal("released view is not 2-anonymous")
	}
}

func TestApplyRejectsInvalidSolutions(t *testing.T) {
	in := patientsInput(2, 0)
	if _, err := in.Apply([]int{0, 0, 0}); err == nil {
		t.Fatal("Apply accepted a non-anonymous generalization")
	}
	if _, err := in.Apply([]int{0, 0}); err == nil {
		t.Fatal("Apply accepted a short level vector")
	}
	if _, err := in.Apply([]int{5, 0, 0}); err == nil {
		t.Fatal("Apply accepted an out-of-range level")
	}
}

func TestApplySuppressesOutliers(t *testing.T) {
	// Build a table with one outlier: 4 rows of "a" and 1 of "b".
	tab := relation.MustNewTable("x")
	for i := 0; i < 4; i++ {
		_ = tab.AppendRow([]string{"a"})
	}
	_ = tab.AppendRow([]string{"b"})
	h, err := hierarchy.SuppressionSpec("X").Bind(tab.Dict(0))
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput(tab, []int{0}, []*hierarchy.Hierarchy{h}, 2, 1)
	v, err := in.Apply([]int{0}) // base level; the "b" row must be suppressed
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 4 {
		t.Fatalf("suppressed view has %d rows, want 4", v.NumRows())
	}
	for r := 0; r < v.NumRows(); r++ {
		if v.Value(r, 0) != "a" {
			t.Fatalf("outlier survived: %q", v.Value(r, 0))
		}
	}
	// Without the threshold the same levels are invalid.
	in.MaxSuppress = 0
	if _, err := in.Apply([]int{0}); err == nil {
		t.Fatal("Apply accepted an under-threshold generalization")
	}
}

// TestMarkedNodesAreNeverChecked: on the Patients example, the second
// iteration of the search must skip <S1,Z1> and <S1,Z2> (marked after
// <S1,Z0> passes, per Example 3.1). We verify through the stats that some
// marking happened and that checked+marked never exceeds candidates.
func TestMarkedNodesAreNeverChecked(t *testing.T) {
	in := patientsInput(2, 0)
	res, err := Run(in, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesMarked == 0 {
		t.Fatal("expected the generalization property to mark at least one node")
	}
	if res.Stats.NodesChecked+res.Stats.NodesMarked > res.Stats.Candidates {
		t.Fatalf("checked %d + marked %d exceeds candidates %d",
			res.Stats.NodesChecked, res.Stats.NodesMarked, res.Stats.Candidates)
	}
}
