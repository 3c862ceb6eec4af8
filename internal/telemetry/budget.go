package telemetry

import "incognito/internal/resilience"

// RegisterBudget exposes a memory accountant's state as live gauges on the
// registry, so a scrape during a budgeted run shows how close the search is
// to its limit and which degradation steps have fired. No-op when either
// side is nil (an unbudgeted run registers nothing).
func RegisterBudget(r *Registry, a *resilience.Accountant) {
	if r == nil || a == nil {
		return
	}
	r.GaugeFunc("incognito_mem_budget_bytes", "Configured soft memory budget for long-lived frequency sets.",
		func() float64 { return float64(a.Budget()) })
	r.GaugeFunc("incognito_mem_used_bytes", "Estimated bytes currently held in long-lived frequency sets.",
		func() float64 { return float64(a.Used()) })
	const degradationHelp = "Degradation-ladder steps taken under memory pressure, by action."
	r.GaugeFunc("incognito_degradation_events", degradationHelp,
		func() float64 { return float64(a.DenseFallbacks()) }, "action", "dense_fallback")
	r.GaugeFunc("incognito_degradation_events", degradationHelp,
		func() float64 {
			if a.Aborted() {
				return 1
			}
			return 0
		}, "action", "abort")
}

// RegisterCheckpoints exposes a checkpointer's save counters as live
// gauges: how many snapshots have been written and how large the last one
// was. No-op when either side is nil.
func RegisterCheckpoints(r *Registry, c *resilience.Checkpointer) {
	if r == nil || c == nil {
		return
	}
	r.GaugeFunc("incognito_checkpoint_saves", "Snapshots written by the run's checkpointer.",
		func() float64 { return float64(c.Saves()) })
	r.GaugeFunc("incognito_checkpoint_last_size_bytes", "Size of the most recently written snapshot file.",
		func() float64 { return float64(c.LastSize()) })
}
