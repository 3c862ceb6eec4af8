package incognito_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	incognito "incognito"
)

// TestConcurrentIndependentRuns checks the documented concurrency contract:
// independent Anonymize runs over a shared, read-only table may proceed in
// parallel. Run with -race to make this meaningful.
func TestConcurrentIndependentRuns(t *testing.T) {
	tab := patientsTable(t)
	want, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		algo := []incognito.Algorithm{
			incognito.BasicIncognito,
			incognito.SuperRootsIncognito,
			incognito.CubeIncognito,
			incognito.BottomUpRollup,
		}[i%4]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Algorithm: algo})
			if err != nil {
				errs <- err
				return
			}
			var got, exp [][]int
			for _, s := range res.Solutions() {
				got = append(got, s.Levels())
			}
			for _, s := range want.Solutions() {
				exp = append(exp, s.Levels())
			}
			if !reflect.DeepEqual(got, exp) {
				errs <- &mismatchError{}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent run produced different solutions" }

// TestConcurrentParallelRuns layers the two concurrency levels: several
// goroutines each run Anonymize with internal parallelism enabled
// (family-parallel search plus sharded scans) against one shared table.
// Under -race this exercises the intra-run worker pools; the assertions
// check the determinism guarantee — identical Solutions and Stats at every
// Parallelism setting, for every algorithm in the Incognito family.
func TestConcurrentParallelRuns(t *testing.T) {
	tab := patientsTable(t)
	algos := []incognito.Algorithm{
		incognito.BasicIncognito,
		incognito.SuperRootsIncognito,
		incognito.CubeIncognito,
	}
	want := make(map[incognito.Algorithm]*incognito.Result)
	for _, algo := range algos {
		res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{
			K: 2, Algorithm: algo, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[algo] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		algo := algos[i%len(algos)]
		parallelism := []int{0, 2, 4}[(i/len(algos))%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{
				K: 2, Algorithm: algo, Parallelism: parallelism,
			})
			if err != nil {
				errs <- err
				return
			}
			var got, exp [][]int
			for _, s := range res.Solutions() {
				got = append(got, s.Levels())
			}
			for _, s := range want[algo].Solutions() {
				exp = append(exp, s.Levels())
			}
			if !reflect.DeepEqual(got, exp) {
				errs <- &mismatchError{}
				return
			}
			if res.Stats() != want[algo].Stats() {
				errs <- &statsMismatchError{}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// partitionTable builds a deterministic synthetic table big enough that
// a base-table scan at Parallelism 3 splits into several row-range chunks
// (the parallel scan keeps at least 2048 rows per chunk), with a QI whose
// lattice has multiple families.
func partitionTable(tb testing.TB, rows int) (*incognito.Table, []incognito.QI) {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	data := make([][]string, rows)
	for i := range data {
		data[i] = []string{
			fmt.Sprintf("%05d", 53000+rng.Intn(40)),
			[]string{"Male", "Female"}[rng.Intn(2)],
			fmt.Sprintf("%d", 1950+rng.Intn(30)),
		}
	}
	tab, err := incognito.NewTable([]string{"Zipcode", "Sex", "Year"}, data)
	if err != nil {
		tb.Fatal(err)
	}
	qi := []incognito.QI{
		{Column: "Zipcode", Hierarchy: incognito.RoundDigits(3)},
		{Column: "Sex", Hierarchy: incognito.Suppression()},
		{Column: "Year", Hierarchy: incognito.RoundDigits(2)},
	}
	return tab, qi
}

// TestPartitionedRunBitIdentical pins the row-partitioned scan: for every
// Incognito variant and both kernels, a run whose base-table scans are
// split into row ranges counted by 1, 2 or 3 workers must produce exactly
// the Solutions and Stats of the sequential run, and so must the
// per-solution metrics that re-scan the table.
func TestPartitionedRunBitIdentical(t *testing.T) {
	tab, qi := partitionTable(t, 4*2048)
	for _, algo := range []incognito.Algorithm{
		incognito.BasicIncognito, incognito.SuperRootsIncognito, incognito.CubeIncognito,
	} {
		for _, sparse := range []bool{false, true} {
			base := incognito.Config{K: 4, Algorithm: algo, SparseKernel: sparse, Parallelism: 1}
			want, err := incognito.Anonymize(tab, qi, base)
			if err != nil {
				t.Fatal(err)
			}
			wantBest, _ := want.Best(incognito.MinDiscernibility())
			for _, parts := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%v/sparse=%v/partitions=%d", algo, sparse, parts), func(t *testing.T) {
					cfg := base
					cfg.Parallelism = parts
					got, err := incognito.Anonymize(tab, qi, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var lv, wv [][]int
					for _, s := range got.Solutions() {
						lv = append(lv, s.Levels())
					}
					for _, s := range want.Solutions() {
						wv = append(wv, s.Levels())
					}
					if !reflect.DeepEqual(lv, wv) {
						t.Fatalf("partitioned solutions differ:\ngot  %v\nwant %v", lv, wv)
					}
					if got.Stats() != want.Stats() {
						t.Fatalf("partitioned stats differ:\ngot  %+v\nwant %+v", got.Stats(), want.Stats())
					}
					best, ok := got.Best(incognito.MinDiscernibility())
					if !ok {
						t.Fatal("partitioned run lost its solutions")
					}
					if best.Discernibility() != wantBest.Discernibility() ||
						best.Suppressed() != wantBest.Suppressed() {
						t.Fatal("solution metrics diverged under partitioned scanning")
					}
				})
			}
		}
	}
}

// TestNegativeParallelismRejected pins the Config validation.
func TestNegativeParallelismRejected(t *testing.T) {
	tab := patientsTable(t)
	if _, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Parallelism: -1}); err == nil {
		t.Fatal("Anonymize accepted a negative Parallelism")
	}
}

type statsMismatchError struct{}

func (*statsMismatchError) Error() string { return "parallel run produced different stats" }

// TestConcurrentApply exercises parallel view materialization from one
// shared Result.
func TestConcurrentApply(t *testing.T) {
	tab := patientsTable(t)
	res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sols := res.Solutions()
	var wg sync.WaitGroup
	for _, s := range sols {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Apply(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
