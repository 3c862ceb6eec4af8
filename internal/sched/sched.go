// Package sched is the repository's task scheduler: a bounded worker
// pool that takes task indices from one shared, mutex-guarded ready list.
// Uneven task costs — a family whose breadth-first search fails deep, a
// cube margin over a much larger parent — never serialize a phase on a
// fixed shard: whichever worker is idle takes the next ready task.
//
// Two entry points cover the repository's phase shapes:
//
//   - RunGraph executes n tasks under a dependency DAG (children become
//     ready when their last dependency finishes), which is how the cube
//     build overlaps what used to be barrier-separated waves;
//   - Run executes a flat batch of n independent tasks: RunGraph with no
//     edges.
//
// The scheduler never owns results and never merges anything: tasks write
// into caller-provided per-index slots and the caller commits them in
// index order after the phase returns. That split is what keeps Solutions
// and Stats bit-identical at every worker count — execution order is
// nondeterministic, commit order never is.
//
// Tasks must not panic across the scheduler: callers wrap fn with their
// own recover (core.runIndexedSafe does) so a worker goroutine never
// unwinds. workers ≤ 1, n ≤ 1, or a nil-task phase degenerates to a plain
// loop on the calling goroutine with zero allocations.
//
// A nil *Metrics disables all accounting at zero cost, following the
// repository's nil-handle convention (internal/trace, internal/telemetry).
package sched

import (
	"sync"
	"sync/atomic"
	"time"
)

// Metrics aggregates scheduler activity across every phase of a run:
// task counts, queue-depth high-water mark, and worker
// busy time against wall time (utilization). All methods are nil-safe
// and the counters are plain atomics, so hot paths never take a lock.
type Metrics struct {
	tasks    atomic.Int64
	parallel atomic.Int64 // phases dispatched onto worker goroutines
	inline   atomic.Int64 // phases run inline on the calling goroutine
	depth    atomic.Int64 // tasks currently in the ready list
	depthMax atomic.Int64 // high-water mark of depth
	busyNS   atomic.Int64 // Σ worker nanoseconds spent inside tasks
	spanNS   atomic.Int64 // Σ workers × phase wall nanoseconds
	wallNS   atomic.Int64 // Σ phase wall nanoseconds of parallel phases
	workers  atomic.Int64 // worker count of the most recent parallel phase
}

// Tasks returns how many tasks the scheduler has executed.
func (m *Metrics) Tasks() int64 {
	if m == nil {
		return 0
	}
	return m.tasks.Load()
}

// ParallelPhases returns how many phases dispatched worker goroutines.
func (m *Metrics) ParallelPhases() int64 {
	if m == nil {
		return 0
	}
	return m.parallel.Load()
}

// InlinePhases returns how many phases ran inline (single worker, a
// single task, or a caller-applied task-size floor).
func (m *Metrics) InlinePhases() int64 {
	if m == nil {
		return 0
	}
	return m.inline.Load()
}

// QueueDepth returns the tasks currently in the ready list — a live
// gauge, normally zero between phases.
func (m *Metrics) QueueDepth() int64 {
	if m == nil {
		return 0
	}
	return m.depth.Load()
}

// QueueDepthPeak returns the high-water mark of QueueDepth.
func (m *Metrics) QueueDepthPeak() int64 {
	if m == nil {
		return 0
	}
	return m.depthMax.Load()
}

// Workers returns the worker count of the most recent parallel phase.
func (m *Metrics) Workers() int64 {
	if m == nil {
		return 0
	}
	return m.workers.Load()
}

// Busy returns the summed worker time spent inside tasks across every
// parallel phase so far.
func (m *Metrics) Busy() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.busyNS.Load())
}

// WorkerSpan returns Σ workers × phase wall time over every parallel
// phase — the denominator of Utilization.
func (m *Metrics) WorkerSpan() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.spanNS.Load())
}

// ParallelWall returns the summed wall-clock time of every parallel
// (worker-dispatched) phase so far. Subtracting it from a run's elapsed
// time gives the serial remainder — the Amdahl split the parallel
// benchmark report records per cell.
func (m *Metrics) ParallelWall() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.wallNS.Load())
}

// Utilization returns the fraction of scheduled worker time spent inside
// tasks, over every parallel phase so far: Σ busy / Σ (workers × wall).
// 0 when nothing has been dispatched.
func (m *Metrics) Utilization() float64 {
	if m == nil {
		return 0
	}
	span := m.spanNS.Load()
	if span <= 0 {
		return 0
	}
	u := float64(m.busyNS.Load()) / float64(span)
	if u > 1 {
		u = 1 // clock skew between per-task and per-phase readings
	}
	return u
}

func (m *Metrics) addDepth(d int64) {
	if m == nil {
		return
	}
	n := m.depth.Add(d)
	for {
		max := m.depthMax.Load()
		if n <= max || m.depthMax.CompareAndSwap(max, n) {
			return
		}
	}
}

func (m *Metrics) notePhase(workers int, wall time.Duration) {
	if m == nil {
		return
	}
	m.parallel.Add(1)
	m.workers.Store(int64(workers))
	m.spanNS.Add(int64(workers) * wall.Nanoseconds())
	m.wallNS.Add(wall.Nanoseconds())
}

func (m *Metrics) noteInline(n int) {
	if m == nil {
		return
	}
	m.inline.Add(1)
	m.tasks.Add(int64(n))
}

// pool is the state of one phase: the shared ready list, the task body
// and — for RunGraph — the dependency bookkeeping that appends newly
// ready tasks to the list. Task granularity in this repository is a
// family search, a cube margin or a ≥2048-row scan chunk — microseconds
// to seconds — so one mutex around the list costs noise and keeps the
// structure trivially correct under the race detector.
type pool struct {
	m        *Metrics
	fn       func(worker, task int)
	children [][]int // nil for flat runs

	mu        sync.Mutex
	cond      *sync.Cond
	ready     []int // tasks whose dependencies have all finished, FIFO
	indeg     []int // unfinished dependencies per task; nil for flat runs
	remaining int   // tasks not yet finished
}

// Run executes fn(worker, task) for every task in [0, n) on up to
// `workers` goroutines. It is RunGraph with no edges: every task is ready
// from the start and idle workers take the lowest index left. The worker
// argument is stable per goroutine (callers use it for worker-local
// accumulation); the task argument covers each index exactly once.
// workers is clamped to n; workers ≤ 1 or n ≤ 1 runs the plain inline
// loop in ascending task order on the calling goroutine, spawning
// nothing and allocating nothing.
func Run(m *Metrics, workers, n int, fn func(worker, task int)) {
	RunGraph(m, workers, n, nil, fn)
}

// RunGraph executes fn(worker, task) for every task in [0, n) under a
// dependency DAG: children[t] lists the tasks that may only start after
// task t finishes (nil children means no edges). Every task must be
// reachable from a root (a task no children list names), and task
// indices must be a topological order — dependencies have lower indices
// than their dependents — so the inline path can run a plain ascending
// loop. A finished task's newly ready children join the back of the
// shared ready list, and any idle worker takes the front.
func RunGraph(m *Metrics, workers, n int, children [][]int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		m.noteInline(n)
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p := &pool{m: m, fn: fn, children: children, remaining: n}
	p.cond = sync.NewCond(&p.mu)
	if children != nil {
		p.indeg = make([]int, n)
		for _, cs := range children {
			for _, c := range cs {
				p.indeg[c]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if p.indeg == nil || p.indeg[i] == 0 {
			p.ready = append(p.ready, i)
		}
	}
	m.addDepth(int64(len(p.ready)))
	p.dispatch(workers)
}

// dispatch runs the worker loops: worker 0 is the calling goroutine,
// workers 1..w-1 are spawned. All of them have returned when it returns,
// so no goroutine outlives its phase (the leak test pins this).
func (p *pool) dispatch(workers int) {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.worker(w)
		}(w)
	}
	p.worker(0)
	wg.Wait()
	p.m.notePhase(workers, time.Since(start))
}

// worker takes tasks from the front of the ready list until every task
// has finished, sleeping while the list is empty but tasks are still
// running (one of them may release children). A finished task's children
// are released and sleepers woken under the same lock that guards the
// list, so no wake-up is ever missed.
func (p *pool) worker(w int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.ready) == 0 && p.remaining > 0 {
			p.cond.Wait()
		}
		if p.remaining == 0 {
			return
		}
		t := p.ready[0]
		p.ready = p.ready[1:]
		p.m.addDepth(-1)
		p.mu.Unlock()
		p.run(w, t)
		p.mu.Lock()
		p.remaining--
		released := 0
		if p.indeg != nil {
			for _, c := range p.children[t] {
				if p.indeg[c]--; p.indeg[c] == 0 {
					p.ready = append(p.ready, c)
					released++
				}
			}
		}
		p.m.addDepth(int64(released))
		if released > 0 || p.remaining == 0 {
			p.cond.Broadcast()
		}
	}
}

// run executes one task, timing it when metrics are on.
func (p *pool) run(w, t int) {
	if p.m == nil {
		p.fn(w, t)
		return
	}
	begin := time.Now()
	p.fn(w, t)
	p.m.busyNS.Add(time.Since(begin).Nanoseconds())
	p.m.tasks.Add(1)
}
