package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// TestImpliedPassMatchesOracle holds the subset-property shortcut (a node
// with a column at a single-valued level passes without a frequency set)
// to the exhaustive oracle. Every instance has one constant base column,
// and randomHierarchy ends every chain at a single value, so each run
// meets such nodes at the roots, behind failed parents, with and without
// suppression. A run with Capture set never takes the shortcut, so it is
// the reference the shortcut's replayed Stats must equal.
func TestImpliedPassMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	var implied int64
	for trial := 0; trial < 40; trial++ {
		nAttrs := 2 + rng.Intn(3)
		domains := make([]int, nAttrs)
		for i := range domains {
			domains[i] = 2 + rng.Intn(5)
		}
		domains[rng.Intn(nAttrs)] = 1
		k := int64(2 + rng.Intn(3))
		var sup int64
		if trial%2 == 1 {
			sup = int64(1 + rng.Intn(4))
		}
		in := randomInstanceOver(rng, domains, k, sup)
		want := exhaustive(&in)
		for _, v := range []Variant{Basic, SuperRoots, Cube} {
			ref := in
			ref.Capture = &StateCapture{}
			ref.Trace = trace.New()
			wantRes, err := Run(ref, v)
			if err != nil {
				t.Fatal(err)
			}
			if n := ref.Trace.Export().SumCounter(CounterNodesImplied); n != 0 {
				t.Fatalf("trial %d %v: a capturing run implied %d nodes, want 0", trial, v, n)
			}
			for _, p := range []int{1, 2} {
				name := fmt.Sprintf("trial %d (domains=%v k=%d sup=%d) %v p=%d", trial, domains, k, sup, v, p)
				run := in
				run.Parallelism = p
				run.Trace = trace.New()
				run.Progress = telemetry.NewProgress()
				res, err := Run(run, v)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(res.Solutions, want) {
					t.Fatalf("%s:\ngot  %v\nwant %v", name, res.Solutions, want)
				}
				if !reflect.DeepEqual(wantRes.Solutions, want) || res.Stats != wantRes.Stats {
					t.Fatalf("%s: stats %+v, capturing run %+v", name, res.Stats, wantRes.Stats)
				}
				if snap := run.Progress.Snapshot(); snap.TableScans != int64(res.Stats.TableScans) {
					t.Fatalf("%s: progress table scans %d != stats %d", name, snap.TableScans, res.Stats.TableScans)
				}
				implied += run.Trace.Export().SumCounter(CounterNodesImplied)
			}
		}
	}
	if implied == 0 {
		t.Fatal("no run implied a node; the instances should exercise the shortcut")
	}
}
