package telemetry

import "sync/atomic"

// Progress is a live, concurrency-safe view of how far a run has got:
// plain atomic counters bumped from the hot paths of internal/core and
// internal/baseline and read by the progress reporter, the /metrics
// endpoint, or any caller that wants a progress bar. It deliberately
// carries no locks, no maps, and no time — writers pay one atomic add.
//
// A nil *Progress is the canonical disabled handle: every method is
// nil-safe and allocation-free on the nil receiver (guarded by an
// allocation test), mirroring the nil-tracer contract of internal/trace.
// Progress counters are best-effort live approximations of the exact
// core.Stats a run returns; they exist for monitoring, not accounting.
type Progress struct {
	phase         atomic.Pointer[string]
	nodesVisited  atomic.Int64
	nodesTotal    atomic.Int64
	tuplesScanned atomic.Int64
	tableScans    atomic.Int64
	rollups       atomic.Int64
}

// NewProgress returns an enabled progress handle.
func NewProgress() *Progress { return &Progress{} }

// SetPhase names the pipeline phase currently running (shown in progress
// events and useful for dashboards). Unlike the Add methods it may
// allocate; it is called once per phase, never per unit of work.
func (p *Progress) SetPhase(name string) {
	if p == nil {
		return
	}
	p.storePhase(name)
}

// storePhase is split out so the allocation for the boxed string happens
// only on the enabled path — SetPhase on a nil handle stays alloc-free.
func (p *Progress) storePhase(name string) { p.phase.Store(&name) }

// Phase returns the current phase name ("" before the first SetPhase and
// on nil).
func (p *Progress) Phase() string {
	if p == nil {
		return ""
	}
	if s := p.phase.Load(); s != nil {
		return *s
	}
	return ""
}

// AddVisited records n generalization nodes processed (checked or marked).
func (p *Progress) AddVisited(n int64) {
	if p == nil {
		return
	}
	p.nodesVisited.Add(n)
}

// AddCandidates grows the known candidate total — the denominator of the
// completion fraction. Incognito learns it iteration by iteration, the
// bottom-up baseline all at once.
func (p *Progress) AddCandidates(n int64) {
	if p == nil {
		return
	}
	p.nodesTotal.Add(n)
}

// AddTuplesScanned records n base-table tuples read by a full scan.
func (p *Progress) AddTuplesScanned(n int64) {
	if p == nil {
		return
	}
	p.tuplesScanned.Add(n)
}

// AddTableScans records n full scans of the base table.
func (p *Progress) AddTableScans(n int64) {
	if p == nil {
		return
	}
	p.tableScans.Add(n)
}

// AddRollups records n frequency sets derived from other frequency sets.
func (p *Progress) AddRollups(n int64) {
	if p == nil {
		return
	}
	p.rollups.Add(n)
}

// ProgressSnapshot is one consistent-enough read of the counters (each
// field is read atomically; the set is not a transaction).
type ProgressSnapshot struct {
	Phase         string
	NodesVisited  int64
	NodesTotal    int64
	TuplesScanned int64
	TableScans    int64
	Rollups       int64
}

// Snapshot reads every counter. The zero snapshot is returned on nil.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		Phase:         p.Phase(),
		NodesVisited:  p.nodesVisited.Load(),
		NodesTotal:    p.nodesTotal.Load(),
		TuplesScanned: p.tuplesScanned.Load(),
		TableScans:    p.tableScans.Load(),
		Rollups:       p.rollups.Load(),
	}
}

// RegisterProgress exposes a progress handle's counters as live metrics on
// the registry (evaluated at scrape time), so `curl :PORT/metrics` during
// a run shows the search advancing. No-op when either side is nil.
func RegisterProgress(r *Registry, p *Progress) {
	if r == nil || p == nil {
		return
	}
	r.GaugeFunc("incognito_progress_nodes_visited", "Generalization nodes processed so far (checked or marked).",
		func() float64 { return float64(p.Snapshot().NodesVisited) })
	r.CounterFunc("incognito_progress_nodes_total", "Candidate nodes generated so far (the completion denominator).",
		func() float64 { return float64(p.Snapshot().NodesTotal) })
	r.GaugeFunc("incognito_progress_tuples_scanned", "Base-table tuples read by full scans so far.",
		func() float64 { return float64(p.Snapshot().TuplesScanned) })
	r.GaugeFunc("incognito_progress_table_scans", "Base-table scans counted so far, including scans a check made unnecessary.",
		func() float64 { return float64(p.Snapshot().TableScans) })
	r.GaugeFunc("incognito_progress_rollups", "Rollups counted so far, including rollups a check made unnecessary.",
		func() float64 { return float64(p.Snapshot().Rollups) })
}
