package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randomTable builds a deterministic pseudo-random table big enough to
// exercise real sharding (several minShardRows worth of rows).
func randomTable(tb testing.TB, rows int, seed int64) *Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	t := MustNewTable("a", "b", "c")
	for i := 0; i < rows; i++ {
		if err := t.AppendRow([]string{
			string(rune('a' + rng.Intn(7))),
			string(rune('a' + rng.Intn(4))),
			string(rune('a' + rng.Intn(11))),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// TestGroupCountParallelMatchesSequential checks the tentpole invariant of
// the sharded scan: identical groups and counts at every worker count,
// with and without recoding, against the sparse reference scan. The cases
// sit on the dense kernel's boundaries: row counts around one scanBlock,
// several shards with a ragged tail, a single column, and a recode with
// one code outside the declared cardinality, which sends every partial
// through spill to the sparse path.
func TestGroupCountParallelMatchesSequential(t *testing.T) {
	big := randomTable(t, 5*minShardRows+137, 3)
	gamma := make([]int32, big.Dict(0).Len())
	for i := range gamma {
		gamma[i] = int32(i % 2)
	}
	outOfRange := append([]int32(nil), gamma...)
	outOfRange[len(outOfRange)-1] = 2 // card below says column 0 has 2 codes
	type scanCase struct {
		name   string
		tab    *Table
		cols   []int
		recode [][]int32
		card   []int // nil: InferCard
		spills bool  // the scan must end sparse
	}
	var cases []scanCase
	for _, rows := range []int{1, scanBlock - 1, scanBlock, scanBlock + 1} {
		tab := randomTable(t, rows, int64(rows))
		cases = append(cases, scanCase{name: fmt.Sprintf("rows=%d", rows), tab: tab, cols: []int{0, 1, 2}})
	}
	cases = append(cases,
		scanCase{name: "shards+tail", tab: big, cols: []int{0, 1, 2}},
		scanCase{name: "shards+tail recoded", tab: big, cols: []int{0, 1, 2}, recode: [][]int32{gamma, nil, nil}},
		scanCase{name: "one column", tab: big, cols: []int{0}},
		scanCase{name: "one column recoded", tab: big, cols: []int{0}, recode: [][]int32{gamma}},
		scanCase{name: "out-of-range recode", tab: big, cols: []int{0, 1, 2}, recode: [][]int32{outOfRange, nil, nil},
			card: []int{2, big.Dict(1).Len(), big.Dict(2).Len()}, spills: true})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			card := c.card
			if card == nil {
				card = InferCard(c.tab, c.cols, c.recode)
			}
			sparse := GroupCountWithCard(c.tab, c.cols, c.recode, nil)
			for _, workers := range []int{0, 1, 2, 3, 4, 7, 64} {
				got := GroupCountParallel(c.tab, c.cols, c.recode, card, workers, nil)
				if got.Dense() == c.spills {
					t.Fatalf("workers=%d: Dense() = %v, want %v", workers, got.Dense(), !c.spills)
				}
				requireSameFreqSet(t, got, sparse)
			}
		})
	}
}

// TestGroupCountParallelBuildsOneScanTable is the allocation gate on the
// chunked scan: the fused per-column table is built once per scan and
// shared by every chunk, not rebuilt per chunk. Column 0 has a
// 30,000-entry dictionary, so its table (240 KB) dwarfs the dense
// partials; at 4 workers the scan runs 16 chunks, and everything it
// allocates beyond the partials must stay under two scan tables.
func TestGroupCountParallelBuildsOneScanTable(t *testing.T) {
	const dictSize = 30_000
	rng := rand.New(rand.NewSource(17))
	tab := MustNewTable("wide", "narrow")
	for v := 0; v < dictSize; v++ {
		tab.Dict(0).Encode(fmt.Sprint(v))
	}
	for v := 0; v < 5; v++ {
		tab.Dict(1).Encode(fmt.Sprint(v))
	}
	for r := 0; r < 16*minShardRows; r++ {
		if err := tab.AppendCoded([]int32{int32(rng.Intn(dictSize)), int32(rng.Intn(5))}); err != nil {
			t.Fatal(err)
		}
	}
	gamma := make([]int32, dictSize)
	for i := range gamma {
		gamma[i] = int32(i % 8)
	}
	cols, recode := []int{0, 1}, [][]int32{gamma, nil}
	card := InferCard(tab, cols, recode)
	const workers = 4
	if got := GroupCountParallel(tab, cols, recode, card, workers, nil); !got.Dense() {
		t.Fatal("scan should be dense")
	}
	tableBytes := uint64(8 * (dictSize + 5))
	partialBytes := uint64(workers * 8 * card[0] * card[1])
	// The fewest bytes over a few runs: a stray runtime allocation may
	// land inside one window, not inside all of them.
	var least uint64
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		GroupCountParallel(tab, cols, recode, card, workers, nil)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; run == 0 || b < least {
			least = b
		}
	}
	if least >= partialBytes+2*tableBytes {
		t.Fatalf("one scan allocated %d bytes; dense partials are %d and one scan table %d, so the table is built more than once",
			least, partialBytes, tableBytes)
	}
	t.Logf("one scan allocated %d bytes (dense partials %d, scan table %d)", least, partialBytes, tableBytes)
}

// TestGroupCountParallelSmallTable checks the small-table fallback: tables
// below the shard threshold must take the sequential path and still be
// correct.
func TestGroupCountParallelSmallTable(t *testing.T) {
	p := patients()
	want := freqAsMap(GroupCount(p, []int{0, 1}, nil))
	got := freqAsMap(GroupCountParallel(p, []int{0, 1}, nil, InferCard(p, []int{0, 1}, nil), 8, nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel GroupCount on a small table diverged from sequential")
	}
}

func TestAddFromMergesCounts(t *testing.T) {
	a := NewFreqSet([]int{0, 1})
	a.Add([]int32{1, 2}, 3)
	a.Add([]int32{4, 5}, 1)
	b := NewFreqSet([]int{0, 1})
	b.Add([]int32{1, 2}, 2)
	b.Add([]int32{7, 7}, 5)
	a.AddFrom(b)
	if got := a.Count([]int32{1, 2}); got != 5 {
		t.Fatalf("merged count = %d, want 5", got)
	}
	if got := a.Count([]int32{4, 5}); got != 1 {
		t.Fatalf("untouched count = %d, want 1", got)
	}
	if got := a.Count([]int32{7, 7}); got != 5 {
		t.Fatalf("imported count = %d, want 5", got)
	}
	if a.Len() != 3 || a.Total() != 11 {
		t.Fatalf("Len=%d Total=%d, want 3 and 11", a.Len(), a.Total())
	}
	// b must be unchanged, and further mutation of a must not leak into b.
	a.Add([]int32{7, 7}, 1)
	if got := b.Count([]int32{7, 7}); got != 5 {
		t.Fatalf("AddFrom aliased counts into the source: got %d, want 5", got)
	}
}

// TestKeyRoundtripFullWidth pins pack/unpack over the whole int32 range.
// Codes with a live high byte occur in practice: internal/recoding folds
// hierarchy levels into the top byte (level<<24 | code), so dropping any
// byte silently merges groups that are distinct.
func TestKeyRoundtripFullWidth(t *testing.T) {
	hot := []int32{0, 1, 1 << 8, 1 << 16, 1 << 24, (2 << 24) | 7, -1, -1 << 24, 1<<31 - 1, -1 << 31}
	f := NewFreqSet([]int{0})
	for _, c := range hot {
		f.Add([]int32{c}, 1)
	}
	if f.Len() != len(hot) {
		t.Fatalf("distinct codes collapsed: Len=%d, want %d", f.Len(), len(hot))
	}
	seen := make(map[int32]int64)
	f.Each(func(codes []int32, count int64) { seen[codes[0]] = count })
	for _, c := range hot {
		if seen[c] != 1 {
			t.Fatalf("code %d round-tripped to count %d, want 1 (seen=%v)", c, seen[c], seen)
		}
		if got := f.Count([]int32{c}); got != 1 {
			t.Fatalf("Count(%d) = %d, want 1", c, got)
		}
	}
}

func TestAddFromRejectsMismatchedColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddFrom over mismatched columns did not panic")
		}
	}()
	a := NewFreqSet([]int{0, 1})
	b := NewFreqSet([]int{0, 2})
	a.AddFrom(b)
}

// TestHotPathAllocations guards the allocation fixes: Count and the
// unpack/iterate path must not allocate at all, and Add over an existing
// group must not re-allocate its key.
func TestHotPathAllocations(t *testing.T) {
	f := NewFreqSet([]int{0, 1, 2})
	codes := []int32{3, 1, 4}
	f.Add(codes, 1)

	if n := testing.AllocsPerRun(200, func() { f.Count(codes) }); n != 0 {
		t.Errorf("Count allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.Add(codes, 1) }); n != 0 {
		t.Errorf("Add over an existing group allocates %.1f objects per call, want 0", n)
	}
	sink := make([]int32, 3)
	if n := testing.AllocsPerRun(200, func() { unpackKey("abcdabcdabcd", sink) }); n != 0 {
		t.Errorf("unpackKey allocates %.1f objects per call, want 0", n)
	}
}

// BenchmarkFreqSetAdd measures the Add hot path; the allocs/op column is
// the regression guard for the scratch-buffer fix (existing groups must
// show 0 allocs/op).
func BenchmarkFreqSetAdd(b *testing.B) {
	f := NewFreqSet([]int{0, 1, 2})
	codes := []int32{3, 1, 4}
	f.Add(codes, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(codes, 1)
	}
}

// BenchmarkFreqSetCount measures the lookup hot path; allocs/op must be 0.
func BenchmarkFreqSetCount(b *testing.B) {
	f := NewFreqSet([]int{0, 1, 2})
	codes := []int32{3, 1, 4}
	f.Add(codes, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Count(codes)
	}
}

// BenchmarkGroupCountSharded compares the sequential scan against the
// sharded scan on one fixed table.
func BenchmarkGroupCountSharded(b *testing.B) {
	tab := randomTable(b, 16*minShardRows, 5)
	cols := []int{0, 1, 2}
	b.Run("workers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GroupCount(tab, cols, nil)
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(benchName(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GroupCountParallel(tab, cols, nil, InferCard(tab, cols, nil), w, nil)
			}
		})
	}
}

func benchName(workers int) string {
	return "workers=" + string(rune('0'+workers))
}
