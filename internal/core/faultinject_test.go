//go:build faultinject

package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"incognito/internal/dataset"
	"incognito/internal/faultinject"
	"incognito/internal/resilience"
)

// The fault matrix arms the package-global injection registry, so none of
// these tests may run in parallel with each other.

// shardInput is an Adults instance big enough that ScanFreq actually shards
// (minShardRows rows per worker) at parallelism ≥ 2.
func shardInput(tb testing.TB) Input {
	tb.Helper()
	a := dataset.Adults(8192, 1)
	cols, hs, err := a.QISubset(5)
	if err != nil {
		tb.Fatal(err)
	}
	return NewInput(a.Table, cols, hs, 5, 0)
}

// expectNoGoroutineLeak asserts the goroutine count settles back to its
// pre-run level: an injected panic must not strand sibling workers.
func expectNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before, %d after fault", before, runtime.NumGoroutine())
			return
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestInjectedPanicsSurfaceAsPanicErrors sweeps the panic-injection sites
// across parallelism levels and kernels: every injected worker or phase
// panic must surface as a *resilience.PanicError whose span path starts at
// the run root and whose value names the injection site, with a nil result
// (no partial state committed) and no leaked goroutines.
func TestInjectedPanicsSurfaceAsPanicErrors(t *testing.T) {
	patients := determinismInputs(t)[0]
	adults := determinismInputs(t)[1]
	sharded := shardInput(t)
	scenarios := []struct {
		site     string
		input    Input
		sparse   []bool
		parallel []int
		run      func(in Input) (*Result, error)
		// wantInSite is an additional substring expected inside the span
		// path, for faults that fire inside named workers.
		wantInSite string
	}{
		{site: "core.scan", input: patients, sparse: []bool{false, true}, parallel: parallelismLevels(),
			run: func(in Input) (*Result, error) { return Run(in, Basic) }},
		{site: "core.rollup", input: patients, sparse: []bool{false, true}, parallel: parallelismLevels(),
			run: func(in Input) (*Result, error) { return Run(in, Basic) }},
		{site: "core.family", input: adults, sparse: []bool{false}, parallel: []int{2},
			run:        func(in Input) (*Result, error) { return Run(in, Basic) },
			wantInSite: "family["},
		{site: "core.cube_wave", input: patients, sparse: []bool{false}, parallel: []int{1, 2},
			run:        func(in Input) (*Result, error) { return Run(in, Cube) },
			wantInSite: "cube_wave["},
		{site: "relation.dense_scan", input: patients, sparse: []bool{false}, parallel: parallelismLevels(),
			run: func(in Input) (*Result, error) { return Run(in, Basic) }},
		{site: "relation.dense_rollup", input: patients, sparse: []bool{false}, parallel: parallelismLevels(),
			run: func(in Input) (*Result, error) { return Run(in, Basic) }},
		{site: "relation.scan_shard", input: sharded, sparse: []bool{false, true}, parallel: []int{2},
			run:        func(in Input) (*Result, error) { return Run(in, Basic) },
			wantInSite: "scan_shard["},
	}
	for _, sc := range scenarios {
		for _, p := range sc.parallel {
			for _, sparse := range sc.sparse {
				t.Run(fmt.Sprintf("%s/p=%d/sparse=%v", sc.site, p, sparse), func(t *testing.T) {
					defer faultinject.Reset()
					before := runtime.NumGoroutine()
					faultinject.Arm(sc.site, faultinject.KindPanic, 1)
					in := sc.input
					in.Parallelism = p
					in.SparseKernel = sparse
					res, err := sc.run(in)
					if err == nil {
						t.Fatalf("armed panic at %s never surfaced (run completed)", sc.site)
					}
					var pe *resilience.PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("err = %v (%T), want a *resilience.PanicError", err, err)
					}
					if !strings.HasPrefix(pe.Site, "run") {
						t.Errorf("span path %q does not start at the run root", pe.Site)
					}
					if sc.wantInSite != "" && !strings.Contains(pe.Site, sc.wantInSite) {
						t.Errorf("span path %q does not name the worker (%q)", pe.Site, sc.wantInSite)
					}
					if !strings.Contains(fmt.Sprint(pe.Value), sc.site) {
						t.Errorf("panic value %v does not name the injection site", pe.Value)
					}
					if len(pe.Stack) == 0 {
						t.Error("no stack captured")
					}
					if res != nil {
						t.Error("partial result committed alongside a worker panic")
					}
					expectNoGoroutineLeak(t, before)
				})
			}
		}
	}
}

// TestInjectedCancellationMidKernel is the satellite contract for the dense
// kernels: a cancellation landing immediately before a dense scan or a
// dense rollup must surface as a clean context.Canceled error with a nil
// result — no partially counted frequency set reaches the search state.
func TestInjectedCancellationMidKernel(t *testing.T) {
	base := determinismInputs(t)[0]
	for _, site := range []string{"relation.dense_scan", "relation.dense_rollup", "core.scan", "core.family"} {
		for _, p := range []int{1, 2} {
			if site == "core.family" && p < 2 {
				continue
			}
			t.Run(fmt.Sprintf("%s/p=%d", site, p), func(t *testing.T) {
				defer faultinject.Reset()
				before := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				faultinject.OnCancel(cancel)
				faultinject.Arm(site, faultinject.KindCancel, 1)
				in := base
				in.Parallelism = p
				in.Ctx = ctx
				res, err := Run(in, Basic)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if res != nil {
					t.Error("cancelled run committed a partial result")
				}
				expectNoGoroutineLeak(t, before)
			})
		}
	}
}

// TestInjectedAllocFailureFallsBackToSparse: a simulated dense-array
// allocation failure must degrade that frequency set to the sparse
// representation and change nothing about the answer — the run completes
// with Solutions and Stats identical to an all-sparse reference.
func TestInjectedAllocFailureFallsBackToSparse(t *testing.T) {
	for di, base := range determinismInputs(t) {
		ref := base
		ref.SparseKernel = true
		want, err := Run(ref, Basic)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("input=%d/p=%d", di, p), func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Arm("relation.dense_alloc", faultinject.KindAlloc, 0) // every allocation fails
				in := base
				in.Parallelism = p
				got, err := Run(in, Basic)
				if err != nil {
					t.Fatalf("run under alloc faults failed: %v", err)
				}
				if !reflect.DeepEqual(got.Solutions, want.Solutions) {
					t.Errorf("alloc-degraded solutions differ:\ngot  %v\nwant %v", got.Solutions, want.Solutions)
				}
				if got.Stats != want.Stats {
					t.Errorf("alloc-degraded stats differ:\ngot  %+v\nwant %+v", got.Stats, want.Stats)
				}
			})
		}
	}
}

// TestInjectedFaultSpecFromEnvFormat exercises the INCOGNITO_FAULTS spec
// path end to end inside the search (the CI job sets the variable; here the
// spec string is armed directly).
func TestInjectedFaultSpecFromEnvFormat(t *testing.T) {
	defer faultinject.Reset()
	if err := faultinject.ArmSpec("panic:core.scan:2"); err != nil {
		t.Fatal(err)
	}
	in := determinismInputs(t)[0]
	_, err := Run(in, Basic)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *resilience.PanicError from the spec-armed site", err)
	}
}
