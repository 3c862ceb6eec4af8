package main

import "runtime"

// perLayer computes the traced run's per-layer metrics: the layer means
// ls of the traced phase b, the library replay's call times, counters from
// the results and /metrics, runtime figures of the untraced phase a, and
// the tracing overhead (b's end-to-end metrics minus a's).
func perLayer(a, b *phase, ls map[string]float64, ea, eb map[string]metric) map[string]metric {
	out := make(map[string]metric)
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	set("service.submit_ms", ls["submit"], "ms")
	set("service.queue_wait_ms", ls["queue_wait"], "ms")
	set("service.run_ms", ls["run"], "ms")
	set("service.poll_lag_ms", ls["poll_lag"], "ms")
	set("service.polls_per_job", ls["polls"], "count")
	set("service.result_fetch_ms", ls["result_fetch"], "ms")
	set("service.result_bytes", ls["result_bytes"], "bytes")
	set("service.unattributed_ms", ls["unattributed"], "ms")
	set("core.search_ms", ls["search"], "ms")

	delta := func(name string) float64 { return b.after[name] - b.before[name] }
	jobs := float64(max(len(b.jobs), 1))
	hits, misses := delta("incognitod_cache_hits"), delta("incognitod_cache_misses")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	set("service.cache_hit_ratio", ratio, "ratio")
	set("service.runs_per_submission", delta("incognitod_runs_total")/float64(max(b.attempted, 1)), "ratio")
	set("service.journal_bytes_per_job", delta("incognitod_journal_bytes")/jobs, "bytes")

	rp := b.replay
	call := func(name string) float64 { return ms(rp.total[name]) / float64(max(rp.calls[name], 1)) }
	set("service.request_decode_ms", call("decode"), "ms")
	set("service.payload_marshal_ms", call("marshal"), "ms")
	set("relation.csv_parse_ms", call("parse"), "ms")
	set("relation.csv_render_ms", call("render"), "ms")
	set("hierarchy.bind_ms", call("bind"), "ms")
	set("release.best_ms", call("best"), "ms")
	set("release.apply_ms", call("apply"), "ms")
	set("core.delta_ms", call("delta"), "ms")
	set("relation.apply_row_delta_ms", call("apply_row_delta"), "ms")

	// Search counters of the jobs that ran the engine; delta savings of
	// the workload's delta jobs, or of the replay's delta where the
	// workload sends none.
	var nodes, cands, scans, rollups, rescanned, screened, revalidated, engine, deltas float64
	for _, r := range b.jobs {
		d := b.results[b.hashes[r]]
		if r.class == "hit" || d == nil {
			continue
		}
		engine++
		nodes += float64(d.Stats.NodesChecked)
		cands += float64(d.Stats.Candidates)
		scans += float64(d.Stats.TableScans)
		rollups += float64(d.Stats.Rollups)
		if d.Delta != nil {
			deltas++
			rescanned += float64(d.Delta.RowsRescanned)
			screened += float64(d.Delta.NodesScreened)
			revalidated += float64(d.Delta.NodesRevalidated)
		}
	}
	if deltas == 0 {
		for _, c := range rp.counts {
			deltas++
			rescanned += float64(c.RowsRescanned)
			screened += float64(c.NodesScreened)
			revalidated += float64(c.NodesRevalidated)
		}
	}
	engine, deltas = max(engine, 1), max(deltas, 1)
	set("core.nodes_checked", nodes/engine, "count")
	set("core.candidates", cands/engine, "count")
	set("relation.table_scans", scans/engine, "count")
	set("relation.rollups", rollups/engine, "count")
	set("core.delta_rows_rescanned", rescanned/deltas, "count")
	set("core.delta_nodes_screened", screened/deltas, "count")
	set("core.delta_nodes_revalidated", revalidated/deltas, "count")

	ajobs := float64(max(len(a.jobs), 1))
	set("runtime.alloc_mb_per_job", float64(a.alloc)/1e6/ajobs, "MB")
	set("runtime.gc_cycles_per_job", float64(a.gcs)/ajobs, "count")
	set("runtime.cpu_utilization", a.cpu.Seconds()/(a.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")

	for _, name := range []string{"jobs_per_s", "engine_job_ms_p50", "cpu_s_per_job", "retained_mb_per_job"} {
		set("tracing.overhead."+name, eb[name].Value-ea[name].Value, ea[name].Unit)
	}
	return out
}
