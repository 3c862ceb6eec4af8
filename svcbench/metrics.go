package main

import (
	"math"
	"sort"
	"time"

	"incognito/internal/trace"
)

// span is one timed interval of a job, on the phase's clock.
type span struct {
	Job    string `json:"job"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_us"`
	Dur    int64  `json:"dur_us"`
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the job latencies in ms of the given classes.
func (p *phase) latencies(classes ...string) []float64 {
	var out []float64
	for _, r := range p.jobs {
		for _, c := range classes {
			if r.class == c {
				out = append(out, ms(r.latency()))
			}
		}
	}
	return out
}

// windows is how many consecutive stretches of equal job count endToEnd
// splits a phase into. The host's speed drifts for seconds at a time, so
// each rate is the median over the stretches rather than a whole-run mean:
// a stall in a few stretches does not move it.
const windows = 10

// endToEnd computes the end-to-end metrics of a phase; retained is the
// heap growth finish measured. Jobs are ordered by completion and cut into
// stretches of len/windows jobs (a remainder is dropped); throughput and
// CPU per job are taken per stretch, engine-job latency as each stretch's
// median, and each metric is the median over the stretches.
func (p *phase) endToEnd(retained uint64) map[string]metric {
	jobs := append([]*jobRec(nil), p.jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].t3.Before(jobs[j].t3) })
	g := max(1, len(jobs)/windows)
	var rate, cpu, lat []float64
	prevT, prevCPU := p.epoch, p.cpu0
	for i := g; i <= len(jobs); i += g {
		last := jobs[i-1]
		rate = append(rate, float64(g)/last.t3.Sub(prevT).Seconds())
		cpu = append(cpu, (last.cpu-prevCPU).Seconds()/float64(g))
		var engine []float64
		for _, r := range jobs[i-g : i] {
			if r.class != "hit" {
				engine = append(engine, ms(r.latency()))
			}
		}
		if len(engine) > 0 {
			lat = append(lat, median(engine))
		}
		prevT, prevCPU = last.t3, last.cpu
	}
	// A run with no completed job reports zeros; its failures already make
	// it incorrect.
	orZero := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	return map[string]metric{
		"setup_s":             {median(p.setup), "s"},
		"jobs_per_s":          {orZero(median(rate)), "1/s"},
		"engine_job_ms_p50":   {orZero(median(lat)), "ms"},
		"cpu_s_per_job":       {orZero(median(cpu)), "s"},
		"retained_mb_per_job": {float64(retained) / 1e6 / float64(max(len(jobs), 1)), "MB"},
	}
}

// classReport is one job class's latency summary for the report line.
type classReport struct {
	Jobs     int      `json:"jobs"`
	P50ms    *float64 `json:"p50_ms"`
	P90ms    *float64 `json:"p90_ms"`
	SubmitMS *float64 `json:"submit_ms"`
}

func (p *phase) classes() map[string]classReport {
	out := make(map[string]classReport)
	for _, c := range []string{"cold", "hit", "delta"} {
		lat := p.latencies(c)
		cr := classReport{Jobs: len(lat)}
		if len(lat) > 0 {
			v := median(lat)
			cr.P50ms = &v
			var submit []float64
			for _, r := range p.jobs {
				if r.class == c {
					submit = append(submit, ms(r.t1.Sub(r.t0)))
				}
			}
			s := mean(submit)
			cr.SubmitMS = &s
		}
		if v, ok := tailQuantile(lat, 0.9); ok {
			cr.P90ms = &v
		}
		out[c] = cr
	}
	return out
}

// interval is a half-open time range of one job.
type interval struct{ from, to time.Time }

// covered is the length of the union of spans, clipped to [from, to].
func covered(from, to time.Time, spans []interval) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].from.Before(spans[j].from) })
	var total time.Duration
	cur := from
	for _, s := range spans {
		if s.from.Before(cur) {
			s.from = cur
		}
		if s.to.After(to) {
			s.to = to
		}
		if s.to.After(s.from) {
			total += s.to.Sub(s.from)
			cur = s.to
		}
	}
	return total
}

// topSpan finds a top-level span of a job trace and places it on the
// client's clock: the tracer's epoch is the job's creation time.
func topSpan(doc *trace.Document, created time.Time, name string) (interval, bool) {
	for _, s := range doc.Spans {
		if s.Name == name {
			from := created.Add(time.Duration(s.StartUS) * time.Microsecond)
			return interval{from, from.Add(time.Duration(s.DurUS) * time.Microsecond)}, true
		}
	}
	return interval{}, false
}

// layerSpans splits each job of the traced phase into the layers seen
// from outside — submit round trip, queue wait, run, poll lag, result
// fetch — writes them as spans, and returns the per-layer means plus the
// mean unattributed remainder.
func (p *phase) layerSpans() (map[string]float64, []span) {
	var (
		sum   = make(map[string]float64)
		count = make(map[string]int)
		spans []span
	)
	add := func(name string, v float64) {
		sum[name] += v
		count[name]++
	}
	rel := func(t time.Time) int64 { return t.Sub(p.epoch).Microseconds() }
	for _, r := range p.jobs {
		job := r.id
		spans = append(spans, span{Job: job, Name: "job", Start: rel(r.t0), Dur: r.t3.Sub(r.t0).Microseconds()})
		for _, c := range r.calls {
			spans = append(spans, span{Job: job, Name: c.name, Parent: "job", Start: rel(c.start), Dur: c.end.Sub(c.start).Microseconds()})
		}
		layers := []interval{{r.t0, r.t1}, {r.t2, r.t3}}
		add("submit", ms(r.t1.Sub(r.t0)))
		add("result_fetch", ms(r.t3.Sub(r.t2)))
		add("polls", float64(r.polls))
		add("result_bytes", float64(r.resultLen))
		if r.polls > 0 && r.status.Finished != nil {
			lag := interval{*r.status.Finished, r.t2}
			layers = append(layers, lag)
			add("poll_lag", ms(lag.to.Sub(lag.from)))
			spans = append(spans, span{Job: job, Name: "poll_lag", Parent: "job", Start: rel(lag.from), Dur: lag.to.Sub(lag.from).Microseconds()})
		}
		if doc := p.traces[r]; doc != nil {
			created := r.status.Created
			for _, name := range []string{"queue_wait", "run"} {
				if iv, ok := topSpan(doc, created, name); ok {
					layers = append(layers, iv)
					add(name, ms(iv.to.Sub(iv.from)))
				}
			}
			var search float64
			for _, s := range doc.Find("search") {
				search += float64(s.DurUS) / 1e3
			}
			add("search", search)
			doc.Walk(func(path []string, s *trace.SpanDoc) {
				parent := "job"
				if len(path) > 1 {
					parent = path[len(path)-2]
				}
				spans = append(spans, span{Job: job, Name: s.Name, Parent: parent,
					Start: rel(created.Add(time.Duration(s.StartUS) * time.Microsecond)), Dur: s.DurUS})
			})
		}
		add("unattributed", ms(r.latency()-covered(r.t0, r.t3, layers)))
	}
	out := make(map[string]float64, len(sum))
	for name, s := range sum {
		out[name] = s / float64(count[name])
	}
	return out, spans
}
