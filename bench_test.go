// Benchmark suite regenerating the paper's evaluation (§4): one benchmark
// per table and figure. Default sizes are scaled so `go test -bench=.`
// finishes in minutes on a laptop; cmd/bench runs the same experiments at
// the paper's full scale (45,222 Adults rows, millions of Lands End rows).
// Override the row counts with INCOGNITO_BENCH_ADULTS_ROWS and
// INCOGNITO_BENCH_LANDSEND_ROWS.
//
// Reported metrics per cell: ns/op (the figure's y-axis), plus nodes/op
// (nodes explicitly checked, the §4.2.1 table), scans/op (base-table
// scans), and for Fig. 12 build_ms/anon_ms (the stacked bars).
package incognito_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"incognito/internal/baseline"
	"incognito/internal/bench"
	"incognito/internal/core"
	"incognito/internal/dataset"
	"incognito/internal/recoding"
	"incognito/internal/relation"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

var (
	adultsOnce sync.Once
	adultsData *dataset.Dataset
	leOnce     sync.Once
	leData     *dataset.Dataset
)

func adults() *dataset.Dataset {
	adultsOnce.Do(func() {
		adultsData = dataset.Adults(envInt("INCOGNITO_BENCH_ADULTS_ROWS", 3000), 1)
	})
	return adultsData
}

func landsEnd() *dataset.Dataset {
	leOnce.Do(func() {
		leData = dataset.LandsEnd(envInt("INCOGNITO_BENCH_LANDSEND_ROWS", 20000), 1)
	})
	return leData
}

// runCell executes one experiment cell b.N times and reports the counters.
func runCell(b *testing.B, d *dataset.Dataset, qi int, k int64, algo bench.Algo) {
	b.Helper()
	var last bench.Measurement
	for i := 0; i < b.N; i++ {
		m, err := bench.Run(d, qi, k, algo)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(float64(last.Stats.NodesChecked), "nodes/op")
	b.ReportMetric(float64(last.Stats.TableScans), "scans/op")
	b.ReportMetric(float64(last.Solutions), "solutions")
}

// BenchmarkFig10Adults regenerates the top panels of Fig. 10: runtime vs.
// quasi-identifier size on the Adults database for k = 2 and k = 10, all
// six algorithms. The exhaustive bottom-up baselines sweep a shorter QI
// range by default because their cost explodes exactly as the paper shows.
func BenchmarkFig10Adults(b *testing.B) {
	d := adults()
	maxQI := map[bench.Algo]int{
		bench.BottomUpNoRollup: 5,
		bench.BottomUpRollup:   6,
		bench.BinarySearch:     8,
	}
	for _, k := range []int64{2, 10} {
		for _, algo := range bench.AllAlgos {
			limit := 8
			if m, ok := maxQI[algo]; ok {
				limit = m
			}
			for qi := 3; qi <= limit; qi++ {
				b.Run(fmt.Sprintf("k=%d/qid=%d/%s", k, qi, algo), func(b *testing.B) {
					runCell(b, d, qi, k, algo)
				})
			}
		}
	}
}

// BenchmarkFig10LandsEnd regenerates the bottom panels of Fig. 10 on the
// synthetic Lands End database.
func BenchmarkFig10LandsEnd(b *testing.B) {
	d := landsEnd()
	maxQI := map[bench.Algo]int{
		bench.BottomUpNoRollup: 4,
		bench.BottomUpRollup:   5,
	}
	for _, k := range []int64{2, 10} {
		for _, algo := range bench.AllAlgos {
			limit := 6
			if m, ok := maxQI[algo]; ok {
				limit = m
			}
			for qi := 3; qi <= limit; qi++ {
				b.Run(fmt.Sprintf("k=%d/qid=%d/%s", k, qi, algo), func(b *testing.B) {
					runCell(b, d, qi, k, algo)
				})
			}
		}
	}
}

// BenchmarkFig11Adults regenerates the left panel of Fig. 11: runtime vs. k
// at fixed quasi-identifier size on Adults for the four algorithms the
// paper plots (binary search, bottom-up with rollup, Basic and Super-roots
// Incognito).
func BenchmarkFig11Adults(b *testing.B) {
	d := adults()
	const qi = 6
	algos := []bench.Algo{bench.BinarySearch, bench.BottomUpRollup, bench.BasicIncognito, bench.SuperRootsIncognito}
	for _, k := range []int64{2, 5, 10, 25, 50} {
		for _, algo := range algos {
			b.Run(fmt.Sprintf("k=%d/%s", k, algo), func(b *testing.B) {
				runCell(b, d, qi, k, algo)
			})
		}
	}
}

// BenchmarkFig11LandsEnd regenerates the right panel of Fig. 11, with the
// paper's staggered quasi-identifier sizes: binary search at QID 6, the
// Incognito variants at QID 8.
func BenchmarkFig11LandsEnd(b *testing.B) {
	d := landsEnd()
	for _, k := range []int64{2, 5, 10, 25, 50} {
		b.Run(fmt.Sprintf("k=%d/Binary Search (QID=6)", k), func(b *testing.B) {
			runCell(b, d, 6, k, bench.BinarySearch)
		})
		b.Run(fmt.Sprintf("k=%d/Basic Incognito (QID=8)", k), func(b *testing.B) {
			runCell(b, d, 8, k, bench.BasicIncognito)
		})
		b.Run(fmt.Sprintf("k=%d/Super-roots Incognito (QID=8)", k), func(b *testing.B) {
			runCell(b, d, 8, k, bench.SuperRootsIncognito)
		})
	}
}

// BenchmarkNodesSearched regenerates the §4.2.1 table: the number of
// generalization nodes each search checks explicitly on Adults at k=2, by
// quasi-identifier size. Read the nodes/op metric: Incognito's a priori
// pruning checks a shrinking fraction of what bottom-up checks.
func BenchmarkNodesSearched(b *testing.B) {
	d := adults()
	for qi := 3; qi <= 6; qi++ {
		b.Run(fmt.Sprintf("qid=%d/Bottom-Up", qi), func(b *testing.B) {
			runCell(b, d, qi, 2, bench.BottomUpRollup)
		})
		b.Run(fmt.Sprintf("qid=%d/Incognito", qi), func(b *testing.B) {
			runCell(b, d, qi, 2, bench.BasicIncognito)
		})
	}
}

// BenchmarkFig12 regenerates the Cube Incognito cost breakdown of Fig. 12:
// the build_ms/anon_ms metrics are the stacked bars (cube construction vs.
// anonymization) by quasi-identifier size, k=2, on both databases.
func BenchmarkFig12(b *testing.B) {
	for _, tc := range []struct {
		name  string
		d     *dataset.Dataset
		maxQI int
	}{
		{"Adults", adults(), 8},
		{"LandsEnd", landsEnd(), 6},
	} {
		for qi := 3; qi <= tc.maxQI; qi++ {
			b.Run(fmt.Sprintf("%s/qid=%d", tc.name, qi), func(b *testing.B) {
				var last bench.Measurement
				for i := 0; i < b.N; i++ {
					m, err := bench.Run(tc.d, qi, 2, bench.CubeIncognito)
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				b.ReportMetric(float64(last.BuildTime.Microseconds())/1000, "build_ms")
				b.ReportMetric(float64(last.AnonTime.Microseconds())/1000, "anon_ms")
			})
		}
	}
}

// BenchmarkModels is the §5 ablation: the alternative k-anonymization
// models on one instance (Adults, 4-attribute QI, k=5), timing each and
// reporting the discernibility of its released view — the
// performance/flexibility tradeoff the taxonomy discussion predicts.
func BenchmarkModels(b *testing.B) {
	d := adults()
	cols, hs, err := d.QISubset(4)
	if err != nil {
		b.Fatal(err)
	}
	in := core.NewInput(d.Table, cols, hs, 5, 0)
	dm := func(view *relation.Table) float64 {
		f := relation.GroupCount(view, cols, nil)
		var dm int64
		total := f.Total()
		f.Each(func(_ []int32, c int64) {
			if c >= 5 {
				dm += c * c
			} else {
				dm += c * total
			}
		})
		return float64(dm)
	}
	b.Run("full-domain-incognito", func(b *testing.B) {
		var v *relation.Table
		for i := 0; i < b.N; i++ {
			res, err := core.Run(in, core.SuperRoots)
			if err != nil {
				b.Fatal(err)
			}
			v, err = in.Apply(res.Solutions[0])
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(dm(v), "discernibility")
	})
	b.Run("datafly", func(b *testing.B) {
		var v *relation.Table
		for i := 0; i < b.N; i++ {
			r, err := recoding.Datafly(in)
			if err != nil {
				b.Fatal(err)
			}
			v = r.View
		}
		b.ReportMetric(dm(v), "discernibility")
	})
	b.Run("subtree-tds", func(b *testing.B) {
		var v *relation.Table
		for i := 0; i < b.N; i++ {
			r, err := recoding.Subtree(in)
			if err != nil {
				b.Fatal(err)
			}
			v = r.View
		}
		b.ReportMetric(dm(v), "discernibility")
	})
	b.Run("unrestricted-single-dim", func(b *testing.B) {
		var v *relation.Table
		for i := 0; i < b.N; i++ {
			r, err := recoding.Unrestricted(in)
			if err != nil {
				b.Fatal(err)
			}
			v = r.View
		}
		b.ReportMetric(dm(v), "discernibility")
	})
	b.Run("subgraph-multi-dim", func(b *testing.B) {
		var v *relation.Table
		for i := 0; i < b.N; i++ {
			r, err := recoding.Subgraph(in)
			if err != nil {
				b.Fatal(err)
			}
			v = r.View
		}
		b.ReportMetric(dm(v), "discernibility")
	})
	b.Run("mondrian", func(b *testing.B) {
		var v *relation.Table
		for i := 0; i < b.N; i++ {
			r, err := recoding.Mondrian(d.Table, cols, 5)
			if err != nil {
				b.Fatal(err)
			}
			v = r.View
		}
		b.ReportMetric(dm(v), "discernibility")
	})
	b.Run("cell-suppression", func(b *testing.B) {
		var v *relation.Table
		for i := 0; i < b.N; i++ {
			r, err := recoding.CellSuppress(d.Table, cols, 5)
			if err != nil {
				b.Fatal(err)
			}
			v = r.View
		}
		b.ReportMetric(dm(v), "discernibility")
	})
}

// parallelLevels enumerates the worker bounds the BenchmarkParallel*
// suites compare: the sequential reference, then every power of two up to
// GOMAXPROCS. On a single-core machine only the serial/1-worker pair runs.
func parallelLevels() []int {
	levels := []int{1}
	for p := 2; p <= runtime.GOMAXPROCS(0); p *= 2 {
		levels = append(levels, p)
	}
	if max := runtime.GOMAXPROCS(0); levels[len(levels)-1] != max {
		levels = append(levels, max)
	}
	return levels
}

// runParallelCell is runCell with an explicit intra-run worker bound. The
// identical metric must be 1 at every level: parallel runs reproduce the
// sequential reference's solutions and counters bit for bit.
func runParallelCell(b *testing.B, d *dataset.Dataset, qi int, k int64, algo bench.Algo, parallelism int) {
	b.Helper()
	ref, err := bench.Run(d, qi, k, algo)
	if err != nil {
		b.Fatal(err)
	}
	var last bench.Measurement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bench.RunParallel(d, qi, k, algo, parallelism)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	identical := last.Solutions == ref.Solutions && last.MinHeight == ref.MinHeight && last.Stats == ref.Stats
	if !identical {
		b.Fatalf("parallelism=%d diverged from sequential reference: got %d solutions %+v, want %d solutions %+v",
			parallelism, last.Solutions, last.Stats, ref.Solutions, ref.Stats)
	}
	b.ReportMetric(float64(last.Solutions), "solutions")
	b.ReportMetric(1, "identical")
}

// BenchmarkParallelAdults9QI is the tentpole's headline workload: the
// Incognito variants on the full 9-attribute Adults quasi-identifier at
// k=2, swept across intra-run worker bounds. Compare ns/op between the
// p=1 and p=GOMAXPROCS sub-benchmarks for the speedup; the identical
// metric certifies the runs agree with the sequential reference.
func BenchmarkParallelAdults9QI(b *testing.B) {
	d := adults()
	qi := len(d.QICols)
	for _, algo := range []bench.Algo{bench.BasicIncognito, bench.SuperRootsIncognito, bench.CubeIncognito} {
		for _, p := range parallelLevels() {
			b.Run(fmt.Sprintf("%s/p=%d", algo, p), func(b *testing.B) {
				runParallelCell(b, d, qi, 2, algo, p)
			})
		}
	}
}

// BenchmarkParallelLandsEnd is the same sweep on the Lands End database at
// QID 6 — fewer, larger frequency sets, so the sharded GroupCount scan
// dominates rather than the per-family graph search.
func BenchmarkParallelLandsEnd(b *testing.B) {
	d := landsEnd()
	for _, algo := range []bench.Algo{bench.BasicIncognito, bench.SuperRootsIncognito, bench.CubeIncognito} {
		for _, p := range parallelLevels() {
			b.Run(fmt.Sprintf("%s/p=%d", algo, p), func(b *testing.B) {
				runParallelCell(b, d, 6, 2, algo, p)
			})
		}
	}
}

// BenchmarkDistanceMatrix measures the alternative k-anonymity check
// Samarati proposed and the paper rejected in footnote 2 ("we found
// constructing this matrix prohibitively expensive for large databases"):
// binary search driven by a pairwise distance-vector matrix versus the
// group-by scans the paper used. The tuples metric is the u in the O(u²·n)
// matrix cost; watch ns/op diverge as QI size (and thus u) grows.
func BenchmarkDistanceMatrix(b *testing.B) {
	d := adults()
	for qi := 3; qi <= 5; qi++ {
		cols, hs, err := d.QISubset(qi)
		if err != nil {
			b.Fatal(err)
		}
		in := core.NewInput(d.Table, cols, hs, 2, 0)
		b.Run(fmt.Sprintf("qid=%d/groupby", qi), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.BinarySearch(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("qid=%d/matrix", qi), func(b *testing.B) {
			var tuples int
			for i := 0; i < b.N; i++ {
				m, err := baseline.NewDistanceMatrix(&in)
				if err != nil {
					b.Fatal(err)
				}
				tuples = m.NumTuples()
				if _, err := baseline.BinarySearchMatrix(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tuples), "tuples")
		})
	}
}

// BenchmarkSubstrate measures the two primitives everything else is built
// from: a full GROUP BY COUNT(*) scan and a frequency-set rollup — the
// scan-vs-rollup gap is the entire premise of the paper's optimizations.
func BenchmarkSubstrate(b *testing.B) {
	d := adults()
	cols, hs, err := d.QISubset(5)
	if err != nil {
		b.Fatal(err)
	}
	in := core.NewInput(d.Table, cols, hs, 2, 0)
	dims := []int{0, 1, 2, 3, 4}
	zero := []int{0, 0, 0, 0, 0}
	b.Run("table-scan-groupby", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.ScanFreq(dims, zero)
		}
	})
	base := in.ScanFreq(dims, zero)
	b.Run("rollup-one-level", func(b *testing.B) {
		to := []int{1, 0, 0, 0, 0}
		for i := 0; i < b.N; i++ {
			in.RollupTo(base, dims, zero, to)
		}
	})
	b.Run("cube-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BuildCube(&in)
		}
	})
}
