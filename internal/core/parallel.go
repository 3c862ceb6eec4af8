package core

// This file implements intra-run parallelism. Iteration i of Fig. 8
// decomposes into one independent candidate graph per i-attribute subset
// ("family"): families share no nodes and no edges, and the breadth-first
// search of one family never reads another's state. The one search driver
// therefore runs each family as one task of the scheduler (internal/sched)
// with its own Stats, then merges survivors and counters in family order.
// Families have wildly uneven costs — one fails deep while its siblings
// pass at the roots — which the scheduler's shared ready list absorbs: an
// idle worker takes the next family. Because every family is searched the
// same way whether it runs inline or on a worker, and the merge runs in
// family-index order on the coordinator, the survivor sets — and hence the
// solutions — are identical at every worker count; the Stats counters are
// per-family sums, so they are identical too.

import (
	"fmt"
	"runtime"

	"incognito/internal/faultinject"
	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
	"incognito/internal/sched"
	"incognito/internal/trace"
)

// Workers resolves the Input's Parallelism knob to a concrete worker
// count: 0 means GOMAXPROCS, 1 (or less) means one worker, and
// anything larger is used as given.
func (in *Input) Workers() int {
	switch {
	case in.Parallelism == 0:
		return runtime.GOMAXPROCS(0)
	case in.Parallelism < 1:
		return 1
	}
	return in.Parallelism
}

// workersFor clamps the resolved worker count to the number of scheduled
// tasks, so a phase never spawns a goroutine that could not receive work
// (the scheduler clamps again defensively; this keeps the accounting and
// the trace attrs honest at the call sites).
func (in *Input) workersFor(tasks int) int {
	w := in.Workers()
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		return 1
	}
	return w
}

// parallelFloorRows is the task-size floor for parallel dispatch,
// measured in base-table rows (the unit every task's cost scales with: a
// family search scans the table, a cube margin walks a frequency set no
// larger than it). Phases over inputs smaller than this run inline on
// the calling goroutine — same task structure, same results, no
// goroutine or scheduling overhead. Measured on this repo's datasets
// (BenchmarkDispatchFloor): below ~100 rows the goroutine handoff costs
// about half as much as the tasks themselves, at ~500 rows it is down to
// ~10% of task cost and shrinking linearly with table size, so above the
// floor dispatch overhead is noise next to even a modest speedup.
const parallelFloorRows = 512

// schedMetrics returns the run's scheduler-metrics handle (nil — i.e.
// disabled — unless telemetry is on).
func (in *Input) schedMetrics() *sched.Metrics { return in.Metrics.Sched() }

// floorWorkers applies the task-size floor: phases whose per-task work is
// bounded by a table this small run inline regardless of the parallelism
// knob.
func (in *Input) floorWorkers(workers int) int {
	if in.Table.NumRows() < parallelFloorRows {
		return 1
	}
	return workers
}

// runIndexedSafe executes fn(0), …, fn(n-1) on the scheduler with worker
// panic isolation: each index runs under a recover wrapper that converts
// a panic into a *resilience.PanicError naming the index's site and flips
// the input's abort flag, so sibling workers drain through their ordinary
// Err checks instead of crashing the process. The
// lowest-index panic is returned; results committed by other indices are
// discarded by the caller alongside the error, so no partial state
// escapes. The recover wrapper also guards the inline (workers ≤ 1) path,
// so panic semantics do not depend on the dispatch decision.
func runIndexedSafe(in *Input, workers, n int, site func(i int) string, fn func(i int)) error {
	panics := make([]*resilience.PanicError, n)
	sched.Run(in.schedMetrics(), workers, n, func(_, i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = resilience.AsPanicError(site(i), r)
				in.abortSiblings()
			}
		}()
		fn(i)
	})
	for _, pe := range panics {
		if pe != nil {
			return pe
		}
	}
	return nil
}

// runGraphSafe is runIndexedSafe over a dependency DAG (sched.RunGraph):
// children[i] lists the tasks unlocked by task i, and task indices must
// be topologically ordered. A panicked task aborts the siblings; its
// dependents still "run" but drain immediately through the Err check
// their fn must perform, so the pool always terminates.
func runGraphSafe(in *Input, workers, n int, children [][]int, site func(i int) string, fn func(i int)) error {
	panics := make([]*resilience.PanicError, n)
	sched.RunGraph(in.schedMetrics(), workers, n, children, func(_, i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = resilience.AsPanicError(site(i), r)
				in.abortSiblings()
			}
		}()
		fn(i)
	})
	for _, pe := range panics {
		if pe != nil {
			return pe
		}
	}
	return nil
}

// rootFreqMaker builds the root frequency-set provider for one family,
// given the family's roots; all the counter writes of the provider must go
// to stats, so the driver can hand every family its own Stats and merge
// them deterministically.
type rootFreqMaker func(roots []*lattice.Node, stats *Stats) func(*lattice.Node) *relation.FreqSet

// searchGraphFamilies runs the Fig. 8 breadth-first search over a whole
// candidate graph, one family (attribute subset) at a time, and merges the
// per-family survivor maps, Stats and proven sets in family order. Each
// family records a child span of parent carrying its work counters, and
// checks the input's context before it starts.
//
// resume is the snapshot being resumed when this is the iteration it
// interrupted (nil otherwise): its completed families are restored without
// re-searching, and its frontier family continues from the recorded level
// with its recorded counters. ck, when non-nil, saves snapshots at family
// boundaries and — when families run inline, one at a time — at the
// breadth-first levels of the family in progress. complete is false
// when the search bailed early at the memory budget's hard stop;
// cancellation is reported by in.Err as before, and a worker panic comes
// back as the error.
func searchGraphFamilies(in *Input, g *lattice.Graph, maker rootFreqMaker, stats *Stats, parent *trace.Span, resume *resilience.Snapshot, ck *iterCkpt, proven map[int]bool) (surv map[int]bool, complete bool, err error) {
	fams := g.Families()
	restored := make(map[string]*resilience.FamilyState)
	var frontier *resilience.Frontier
	if resume != nil {
		for i := range resume.Families {
			restored[dimsKey(resume.Families[i].Dims)] = &resume.Families[i]
		}
		ck.preload(resume.Families)
		frontier = resume.Frontier
	}
	results := make([]map[int]bool, len(fams))
	famStats := make([]Stats, len(fams))
	famProven := make([]map[int]bool, len(fams))
	completes := make([]bool, len(fams))
	errs := make([]error, len(fams))
	// Families run inline, in family order, on one worker, for a single
	// family, or below the dispatch floor; only then is one family in
	// progress at a time, so only then can a snapshot hold its frontier.
	dispatch := in.floorWorkers(in.workersFor(len(fams)))
	levelCk := ck
	if dispatch > 1 {
		levelCk = nil
	}
	werr := runIndexedSafe(in, dispatch, len(fams), func(i int) string { return fmt.Sprintf("family[%d]", i) }, func(i int) {
		nodes := fams[i]
		key := dimsKey(nodes[0].Dims)
		if fs := restored[key]; fs != nil {
			// This family completed before the checkpoint: reconstruct its
			// survivor map from the recorded failures and take its counters
			// verbatim instead of re-searching it.
			results[i], errs[i] = familySurvivors(g, nodes, fs.Failed)
			famStats[i] = statsFromMap(fs.Stats)
			completes[i] = errs[i] == nil
			sp := parent.Start("family")
			sp.SetAttr("dims", nodes[0].DimsKey())
			sp.SetAttr("nodes", len(nodes))
			sp.SetAttr("restored", true)
			famStats[i].recordOn(sp)
			sp.End()
			return
		}
		if in.Err() != nil {
			return // cancelled: the driver discards everything anyway
		}
		if in.Budget.Exhausted() {
			return // hard stop: reported as complete=false below
		}
		faultinject.Point("core.family")
		sp := parent.Start("family")
		sp.SetAttr("dims", nodes[0].DimsKey())
		sp.SetAttr("nodes", len(nodes))
		var fr *resilience.Frontier
		if frontier != nil && dimsKey(frontier.Dims) == key {
			fr = frontier
			famStats[i] = statsFromMap(fr.Stats)
		}
		if proven != nil {
			famProven[i] = make(map[int]bool)
		}
		st := &famStats[i]
		results[i], completes[i], errs[i] = searchFamily(in, g, nodes, maker, st, sp, levelCk, fr, famProven[i])
		st.recordOn(sp)
		sp.End()
		if completes[i] && errs[i] == nil && in.Err() == nil {
			ck.addFamily(nodes, results[i], *st)
		}
	})
	if werr != nil {
		// Rethrow the typed worker panic so the variant's run-level guard
		// prefixes the span path with the run root, same as the cube
		// waves.
		panic(werr)
	}
	for _, e := range errs {
		if e != nil {
			return nil, false, e
		}
	}
	surv = make(map[int]bool, g.Len())
	complete = true
	for i := range results {
		for id, ok := range results[i] {
			surv[id] = ok
		}
		for id := range famProven[i] {
			proven[id] = true
		}
		stats.Add(famStats[i])
		if !completes[i] {
			complete = false
		}
	}
	return surv, complete, nil
}

// familySurvivors rebuilds a completed family's survivor map from the
// candidates a snapshot recorded as failed.
func familySurvivors(g *lattice.Graph, nodes []*lattice.Node, failed []resilience.NodeKey) (map[int]bool, error) {
	m := make(map[int]bool, len(nodes))
	for _, nd := range nodes {
		m[nd.ID] = true
	}
	for _, k := range failed {
		nd := g.Lookup(k.Dims, k.Levels)
		if nd == nil {
			return nil, fmt.Errorf("core: resume snapshot names a node %v/%v absent from iteration graph", k.Dims, k.Levels)
		}
		m[nd.ID] = false
	}
	return m, nil
}

// familyState records one completed family for a checkpoint: its attribute
// subset, the candidates that failed the k-anonymity check (in node-ID
// order), and the search counters it spent.
func familyState(nodes []*lattice.Node, surv map[int]bool, st Stats) resilience.FamilyState {
	fs := resilience.FamilyState{Dims: append([]int(nil), nodes[0].Dims...), Stats: statsToMap(st)}
	for _, nd := range nodes {
		if !surv[nd.ID] {
			fs.Failed = append(fs.Failed, nodeKey(nd))
		}
	}
	return fs
}

// familyRoots returns the roots (no incoming edge) among one family's
// nodes, in ID order.
func familyRoots(g *lattice.Graph, nodes []*lattice.Node) []*lattice.Node {
	var out []*lattice.Node
	for _, n := range nodes {
		if len(g.Down(n.ID)) == 0 {
			out = append(out, n)
		}
	}
	return out
}
