package core

// This file implements checkpoint/resume for the Incognito outer loop. A
// snapshot never stores frequency sets. It holds the survivor history of
// completed iterations, the families of the in-progress iteration that
// completed (their failed nodes and counters) and, when families run one
// at a time, the family in progress: which of its nodes were processed
// with what outcome, and its counters so far. Everything else is derived
// on resume:
//
//   - candidate graphs and node IDs are replayed through lattice.Generate,
//     which is deterministic, so heap tie-breaks (by ID) behave identically;
//   - queue contents, marks, rollup parents and retained frequency sets of
//     a family's partial breadth-first search are reconstructed from the
//     processed list, replaying outcomes in their original order;
//   - frequency sets of failure-frontier nodes are recomputed by walking
//     each node's rollup-parent chain down to a root (rollup property).
//
// Restore work is deliberately not counted in Stats — it re-does work the
// original run already counted before the snapshot — so a resumed run's
// final Solutions and Stats are bit-identical to an uninterrupted one.

import (
	"fmt"
	"sync"

	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// midSavesPerIteration bounds how many mid-iteration snapshots one
// iteration writes. Every snapshot rewrites the whole survivor history and
// every completed family, then fsyncs, so saving at every family and level
// boundary of an iteration with hundreds of families costs more than the
// search itself; one save per 1/32 of the iteration's candidate count
// searched keeps a killed run's lost work small at a bounded cost.
const midSavesPerIteration = 32

// iterCkpt assembles and saves the mid-iteration snapshots of one subset-size
// iteration. A nil *iterCkpt (checkpointing disabled) no-ops throughout.
// Family saves arrive concurrently from dispatched workers; every save
// includes every family completed so far.
type iterCkpt struct {
	check   *resilience.Checkpointer
	fp      resilience.Fingerprint
	iter    int // completed iterations before this one
	history [][]resilience.NodeKey
	// stats is the Stats total through iteration iter. The in-progress
	// iteration's work — its candidate count included — is never in it:
	// each family carries its own counters, and resume re-adds the rest.
	stats Stats
	// every is the search work (nodes checked or marked) between two
	// mid-iteration saves.
	every int

	mu       sync.Mutex
	families []resilience.FamilyState
	work     int // search work of the families completed so far
	savedAt  int // work at the last save
	err      error
}

// newIterCkpt returns the checkpointer of one iteration over a graph of
// `candidates` nodes, or nil when checkpointing is off.
func newIterCkpt(check *resilience.Checkpointer, fp resilience.Fingerprint, iter int, history [][]resilience.NodeKey, stats Stats, candidates int) *iterCkpt {
	if check == nil {
		return nil
	}
	every := candidates / midSavesPerIteration
	if every < 1 {
		every = 1
	}
	return &iterCkpt{check: check, fp: fp, iter: iter, history: history, stats: stats, every: every}
}

// due reports whether a boundary reached at search work w is saved, and
// if so moves the save mark there; c.mu must be held.
func (c *iterCkpt) due(w int) bool {
	if w-c.savedAt < c.every {
		return false
	}
	c.savedAt = w
	return true
}

// preload seeds the completed-family list with families restored from the
// snapshot being resumed, so subsequent saves keep carrying them.
func (c *iterCkpt) preload(families []resilience.FamilyState) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.families = append(c.families, families...)
}

// addFamily records one newly completed family — its nodes, survivors and
// the counters st its search spent — and, when due, saves a
// family-boundary snapshot carrying all families completed so far.
func (c *iterCkpt) addFamily(nodes []*lattice.Node, surv map[int]bool, st Stats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.families = append(c.families, familyState(nodes, surv, st))
	c.work += st.NodesChecked + st.NodesMarked
	if c.due(c.work) {
		c.save("family", nil)
	}
}

// saveLevel saves, when due, a level-boundary snapshot: the completed
// families plus the frontier of the one family in progress — its
// processed-node outcomes so far and the counters st its search has spent.
func (c *iterCkpt) saveLevel(dims []int, processed []resilience.NodeOutcome, st Stats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.due(c.work + st.NodesChecked + st.NodesMarked) {
		return
	}
	c.save("level", &resilience.Frontier{
		Dims:      append([]int(nil), dims...),
		Processed: append([]resilience.NodeOutcome(nil), processed...),
		Stats:     statsToMap(st),
	})
}

// save writes one snapshot of the iteration; c.mu must be held. The first
// save error is kept for takeErr.
func (c *iterCkpt) save(boundary string, fr *resilience.Frontier) {
	snap := &resilience.Snapshot{
		Fingerprint: c.fp,
		Boundary:    boundary,
		Iter:        c.iter,
		History:     c.history,
		Stats:       statsToMap(c.stats),
		Families:    append([]resilience.FamilyState(nil), c.families...),
		Frontier:    fr,
	}
	if err := c.check.Save(snap); err != nil && c.err == nil {
		c.err = err
	}
}

// takeErr returns the first save error, if any.
func (c *iterCkpt) takeErr() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// statsToMap flattens Stats onto the trace counter names for serialization.
func statsToMap(s Stats) map[string]int64 {
	return map[string]int64{
		CounterNodesChecked: int64(s.NodesChecked),
		CounterNodesMarked:  int64(s.NodesMarked),
		CounterCandidates:   int64(s.Candidates),
		CounterTableScans:   int64(s.TableScans),
		CounterRollups:      int64(s.Rollups),
		CounterCubeFreqSets: int64(s.CubeFreqSets),
	}
}

// statsFromMap is the inverse of statsToMap.
func statsFromMap(m map[string]int64) Stats {
	return Stats{
		NodesChecked: int(m[CounterNodesChecked]),
		NodesMarked:  int(m[CounterNodesMarked]),
		Candidates:   int(m[CounterCandidates]),
		TableScans:   int(m[CounterTableScans]),
		Rollups:      int(m[CounterRollups]),
		CubeFreqSets: int(m[CounterCubeFreqSets]),
	}
}

// nodeKey is a lattice node's representation-independent checkpoint identity.
func nodeKey(n *lattice.Node) resilience.NodeKey {
	return resilience.NodeKey{
		Dims:   append([]int(nil), n.Dims...),
		Levels: append([]int(nil), n.Levels...),
	}
}

// survivorKeys collects the NodeKeys of the surviving nodes of a searched
// graph, in node-ID order — one entry of a snapshot's History.
func survivorKeys(g *lattice.Graph, surv map[int]bool) []resilience.NodeKey {
	keys := make([]resilience.NodeKey, 0, len(surv))
	for _, n := range g.Nodes() {
		if surv[n.ID] {
			keys = append(keys, nodeKey(n))
		}
	}
	return keys
}

// survivorsFromKeys resolves a History entry against the replayed graph.
// Missing nodes mean the snapshot does not belong to this instance.
func survivorsFromKeys(g *lattice.Graph, keys []resilience.NodeKey) (map[int]bool, error) {
	surv := make(map[int]bool, len(keys))
	for _, k := range keys {
		n := g.Lookup(k.Dims, k.Levels)
		if n == nil {
			return nil, fmt.Errorf("core: resume snapshot names a node %v/%v absent from the replayed graph", k.Dims, k.Levels)
		}
		surv[n.ID] = true
	}
	return surv, nil
}

// restoreFrontier rebuilds a family's partial breadth-first search from a
// snapshot's processed list, replaying outcomes in their original (heap)
// order so the derived state — marks, rollup parents,
// pending-generalization counts — is exactly what the original run held at
// the save point. Frequency sets of
// failure-frontier nodes that can still be rolled up from are recomputed by
// walking their rollup-parent chains down to roots; rootFreq must write its
// counters to a discard sink, because this work was already counted before
// the snapshot. Returns the nodes that belong in the queue (pushed but not
// yet processed), in a deterministic order.
func restoreFrontier(in *Input, g *lattice.Graph, fr *resilience.Frontier, roots []*lattice.Node,
	surv, marked, processed, proven map[int]bool, parentOf map[int]int, pendingUps map[int]int,
	freqs map[int]*relation.FreqSet, rootFreq func(*lattice.Node) *relation.FreqSet) ([]*lattice.Node, error) {

	var failedOrder []*lattice.Node
	for _, po := range fr.Processed {
		node := g.Lookup(po.Key.Dims, po.Key.Levels)
		if node == nil {
			return nil, fmt.Errorf("core: resume snapshot names a node %v/%v absent from iteration graph", po.Key.Dims, po.Key.Levels)
		}
		processed[node.ID] = true
		switch po.Outcome {
		case resilience.OutcomePassed:
			if proven != nil {
				proven[node.ID] = true
			}
			for _, up := range g.Up(node.ID) {
				marked[up] = true
			}
		case resilience.OutcomeMarked:
			if proven != nil {
				proven[node.ID] = true
			}
		case resilience.OutcomeFailed:
			surv[node.ID] = false
			for _, up := range g.Up(node.ID) {
				if _, has := parentOf[up]; !has {
					parentOf[up] = node.ID
				}
			}
			failedOrder = append(failedOrder, node)
		default:
			return nil, fmt.Errorf("core: resume snapshot has unknown node outcome %q", po.Outcome)
		}
	}

	// A failed node's frequency set is still needed while it has unprocessed
	// direct generalizations (the originals were released as pendingUps hit
	// zero, so only these are recomputed).
	for _, fn := range failedOrder {
		ups := g.Up(fn.ID)
		if len(ups) == 0 {
			continue
		}
		pending := 0
		for _, up := range ups {
			if !processed[up] {
				pending++
			}
		}
		if pending > 0 {
			pendingUps[fn.ID] = pending
		}
	}
	memo := make(map[int]*relation.FreqSet)
	var compute func(n *lattice.Node) *relation.FreqSet
	compute = func(n *lattice.Node) *relation.FreqSet {
		if f, ok := memo[n.ID]; ok {
			return f
		}
		var f *relation.FreqSet
		if pid, ok := parentOf[n.ID]; ok {
			parent := g.Node(pid)
			f = in.RollupTo(compute(parent), n.Dims, parent.Levels, n.Levels)
		} else {
			f = rootFreq(n)
		}
		memo[n.ID] = f
		return f
	}
	for _, fn := range failedOrder {
		if _, need := pendingUps[fn.ID]; need {
			f := compute(fn)
			freqs[fn.ID] = f
			in.grantFreq(f)
		}
	}

	// The queue at the save point: roots plus the direct generalizations of
	// failed nodes, minus everything already processed. The original run may
	// have pushed a node more than once, but duplicate pops are skipped, so
	// pushing each once is equivalent.
	inQueue := make(map[int]bool)
	var queue []*lattice.Node
	push := func(n *lattice.Node) {
		if !processed[n.ID] && !inQueue[n.ID] {
			inQueue[n.ID] = true
			queue = append(queue, n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for _, fn := range failedOrder {
		for _, up := range g.Up(fn.ID) {
			push(g.Node(up))
		}
	}
	return queue, nil
}

// degradedErr wraps resilience.ErrDegraded with the budget numbers and
// records the abort on the accountant (the telemetry counter CLIs export).
func degradedErr(in *Input) error {
	in.Budget.NoteAbort()
	return fmt.Errorf("core: %w (estimated %d live bytes against a %d-byte budget)",
		resilience.ErrDegraded, in.Budget.Used(), in.Budget.Budget())
}
