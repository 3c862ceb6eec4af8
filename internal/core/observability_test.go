package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"incognito/internal/trace"
)

// countdownCtx cancels itself after a fixed number of Err calls — a
// deterministic way to interrupt a run mid-phase, unlike timer-based
// cancellation. Only Err is overridden; the run paths poll Err at every
// phase boundary and worker loop, which is exactly what this counts.
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func newCountdown(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// statsCounters maps a Stats value onto the trace counter names.
func statsCounters(s Stats) map[string]int64 {
	return map[string]int64{
		CounterNodesChecked: int64(s.NodesChecked),
		CounterNodesMarked:  int64(s.NodesMarked),
		CounterCandidates:   int64(s.Candidates),
		CounterTableScans:   int64(s.TableScans),
		CounterRollups:      int64(s.Rollups),
		CounterCubeFreqSets: int64(s.CubeFreqSets),
	}
}

// TestTracingDoesNotPerturbResults is the tentpole's first contract:
// Solutions and Stats are bit-identical with the tracer enabled or
// disabled, at every parallelism level.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for di, ref := range determinismInputs(t) {
		for _, v := range []Variant{Basic, SuperRoots, Cube} {
			v := v
			t.Run(fmt.Sprintf("input=%d/%v", di, v), func(t *testing.T) {
				for _, p := range parallelismLevels() {
					in := ref
					in.Parallelism = p
					want, err := Run(in, v)
					if err != nil {
						t.Fatal(err)
					}
					in.Trace = trace.New()
					got, err := Run(in, v)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want.Solutions, got.Solutions) {
						t.Fatalf("parallelism %d: solutions differ with tracing on", p)
					}
					if want.Stats != got.Stats {
						t.Fatalf("parallelism %d: stats differ with tracing on:\n  off: %+v\n  on:  %+v",
							p, want.Stats, got.Stats)
					}
				}
			})
		}
	}
}

// TestTraceCountersSumToStats is the tentpole's accounting contract: every
// unit of work is recorded on exactly one span, so summing any counter over
// the exported span tree reproduces the matching core.Stats total — for
// cold runs and for delta runs, whose screen and force times are counters
// on the search span only.
func TestTraceCountersSumToStats(t *testing.T) {
	for di, ref := range determinismInputs(t) {
		for _, p := range parallelismLevels() {
			for _, v := range []Variant{Basic, SuperRoots, Cube} {
				in := ref
				in.Parallelism = p
				in.Trace = trace.New()
				res, err := Run(in, v)
				if err != nil {
					t.Fatal(err)
				}
				doc := in.Trace.Export()
				for name, want := range statsCounters(res.Stats) {
					if got := doc.SumCounter(name); got != want {
						t.Errorf("input=%d parallelism=%d %v: trace sum of %q = %d, stats say %d",
							di, p, v, name, got, want)
					}
				}
				for _, name := range []string{CounterDeltaScreenNS, CounterDeltaForceNS} {
					if got := doc.SumCounter(name); got != 0 {
						t.Errorf("input=%d parallelism=%d %v: cold run recorded %q = %d", di, p, v, name, got)
					}
				}
			}
		}
	}

	// Delta runs: the same sums hold, and the screen and forced
	// revalidation times sit on the search span alone, as two counters.
	rng := rand.New(rand.NewSource(17))
	var screenedRuns, forcedRuns int
	for trial := 0; trial < 6; trial++ {
		fx := newDeltaFixture(rng, 2+rng.Intn(2), int64(2+rng.Intn(3)), int64(rng.Intn(2)))
		baseRows := fx.randomRows(rng, 25+rng.Intn(40))
		removeFrac := 0.08
		if trial%2 == 1 {
			removeFrac = 0.5 // flips verdicts, so screened-failed parents get forced
		}
		editedRows, removedRows, addedRows := fx.splitDelta(rng, baseRows, removeFrac, rng.Intn(5))
		coldIn := fx.bind(t, fx.table(t, baseRows))
		coldIn.Capture = &StateCapture{}
		if _, err := Run(coldIn, Basic); err != nil {
			t.Fatal(err)
		}
		state := runState(&coldIn, coldIn.Capture)
		for _, p := range parallelismLevels() {
			in := fx.bind(t, fx.table(t, editedRows))
			in.Parallelism = p
			in.Delta = &DeltaRun{State: state, Added: fx.deltaRows(t, addedRows), Removed: fx.deltaRows(t, removedRows)}
			in.Trace = trace.New()
			res, err := Run(in, Basic)
			if err != nil {
				t.Fatal(err)
			}
			doc := in.Trace.Export()
			for name, want := range statsCounters(res.Stats) {
				if got := doc.SumCounter(name); got != want {
					t.Errorf("delta trial %d parallelism=%d: trace sum of %q = %d, stats say %d", trial, p, name, got, want)
				}
			}
			search := doc.Find("search")
			if len(search) != 1 {
				t.Fatalf("delta trial %d: %d search spans, want 1", trial, len(search))
			}
			for _, name := range []string{CounterDeltaScreenNS, CounterDeltaForceNS} {
				if own, sum := search[0].Counters[name], doc.SumCounter(name); own != sum {
					t.Errorf("delta trial %d parallelism=%d: %q is %d on search but %d over the trace", trial, p, name, own, sum)
				}
			}
			// Every checked node goes through the screen first.
			if screen := search[0].Counters[CounterDeltaScreenNS]; (screen > 0) != (res.Stats.NodesChecked > 0) {
				t.Errorf("delta trial %d parallelism=%d: %s = %d with %d nodes checked",
					trial, p, CounterDeltaScreenNS, screen, res.Stats.NodesChecked)
			} else if screen > 0 {
				screenedRuns++
			}
			if search[0].Counters[CounterDeltaForceNS] > 0 {
				forcedRuns++
			}
		}
	}
	t.Logf("delta runs: %d timed screens, %d timed forced revalidations", screenedRuns, forcedRuns)
	if screenedRuns == 0 || forcedRuns == 0 {
		t.Fatalf("delta runs timed %d screens and %d forced revalidations; the fixtures should exercise both", screenedRuns, forcedRuns)
	}
}

// TestTraceCoversEveryIteration asserts the span tree's shape: one search
// span per run with an iteration child per subset size, each carrying the
// subset_size attribute, and a generate child between each two.
func TestTraceCoversEveryIteration(t *testing.T) {
	in := determinismInputs(t)[1]
	in.Trace = trace.New()
	if _, err := Run(in, Basic); err != nil {
		t.Fatal(err)
	}
	doc := in.Trace.Export()
	iters := doc.Find("iteration")
	if len(iters) != len(in.QI) {
		t.Fatalf("trace has %d iteration spans, want %d (one per subset size)", len(iters), len(in.QI))
	}
	for i, it := range iters {
		if got := it.Attrs["subset_size"]; fmt.Sprint(got) != fmt.Sprint(i+1) {
			t.Errorf("iteration %d has subset_size=%v, want %d", i, got, i+1)
		}
	}
	if gens := doc.Find("generate"); len(gens) != len(in.QI)-1 {
		t.Fatalf("trace has %d generate spans, want %d (one per candidate generation)", len(gens), len(in.QI)-1)
	}
}

// TestRunCancellation sweeps the cancellation countdown so the context
// expires inside every phase: candidate generation, the BFS, the cube
// waves. Each run must fail with an error wrapping context.Canceled and
// never panic or return a partial result.
func TestRunCancellation(t *testing.T) {
	base := determinismInputs(t)[1]
	for _, v := range []Variant{Basic, SuperRoots, Cube} {
		for _, p := range []int{1, 2} {
			for n := 0; n < 40; n += 3 {
				in := base
				in.Parallelism = p
				in.Ctx = newCountdown(n)
				res, err := Run(in, v)
				if err == nil {
					// The countdown outlived the run — a complete result is
					// the only acceptable non-error outcome.
					if res == nil || len(res.Solutions) == 0 {
						t.Fatalf("%v parallelism=%d n=%d: nil error but incomplete result", v, p, n)
					}
					continue
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v parallelism=%d n=%d: error %v does not wrap context.Canceled", v, p, n, err)
				}
				if res != nil {
					t.Fatalf("%v parallelism=%d n=%d: cancelled run returned a partial result", v, p, n)
				}
			}
		}
	}
}

// TestRunCancelledBeforeStart: an already-cancelled context fails fast.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range []Variant{Basic, SuperRoots, Cube} {
		in := patientsInput(2, 0)
		in.Ctx = ctx
		if _, err := Run(in, v); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error %v does not wrap context.Canceled", v, err)
		}
	}
}
