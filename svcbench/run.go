package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"incognito/internal/service"
	"incognito/internal/trace"
)

const (
	policyCold   = `{"k":10}`
	policyParent = `{"k":10,"retain_state":true}`
	// Set-up repetitions; see start.
	setupMinReps = 5
	setupMaxReps = 101
	setupBudget  = 2 * time.Second
)

// inputs are a workload's generated data, made before any timing starts.
type inputs struct {
	w      workload
	seed   int64
	qiCols []string
	qiSpec string
	qiJSON string
	bases  [][]*base // per client
}

func prepare(w workload, seed int64, dir string) (*inputs, error) {
	spec, cols, err := writeQISpec(w.data, w.qi, dir)
	if err != nil {
		return nil, err
	}
	qiJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, qiCols: cols, qiSpec: spec, qiJSON: string(qiJSON), bases: make([][]*base, w.clients)}
	errs := make([]error, w.clients*w.bases)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for c := range in.bases {
		in.bases[c] = make([]*base, w.bases)
		for b := range in.bases[c] {
			wg.Add(1)
			go func(c, b int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				in.bases[c][b], errs[c*w.bases+b] = newBase(w.data, w.rows, subSeed(seed, 1, int64(c), int64(b)))
			}(c, b)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *inputs) body(ds datasetRef, policy string) []byte {
	return in.bases[ds.client][ds.base].submitBody(ds.rot, in.qiJSON, policy)
}

// sample is a cold job kept whole for the library-path comparison.
type sample struct {
	ds            datasetRef
	body, payload []byte
}

// phase is one daemon's set-up and timed closed-loop run.
type phase struct {
	in     *inputs
	traced bool
	d      *daemon
	setup  []float64 // seconds per set-up

	parentID      string // adults-delta: the retain-state parent
	parentPayload []byte

	epoch         time.Time
	elapsed       time.Duration
	cpu0, cpu     time.Duration // process CPU at the start; spent in the phase
	heapStart     uint64
	alloc         uint64
	gcs           uint32
	before, after map[string]float64

	jobs      []*jobRec
	attempted int
	failures  []string
	// hashes maps a job to its result; results holds each distinct
	// result's counters once its release passed the check.
	hashes  map[*jobRec][32]byte
	results map[[32]byte]*decoded
	traces  map[*jobRec]*trace.Document
	samples []sample
	replay  *replay
	// The delta chain: every edit in order and the payloads of the last
	// links (index -1 is the parent).
	edits        []edit
	linkPayloads map[int][]byte
}

// clientOut is what one client goroutine produced.
type clientOut struct {
	jobs      []*jobRec
	attempted int
	failures  []string
	hashes    map[*jobRec][32]byte
	results   map[[32]byte]*decoded
	traces    map[*jobRec]*trace.Document
	samples   []sample
	edits     []edit
	links     map[int][]byte
	first     map[datasetRef][32]byte
}

func newClientOut() *clientOut {
	return &clientOut{
		hashes:  make(map[*jobRec][32]byte),
		results: make(map[[32]byte]*decoded),
		traces:  make(map[*jobRec]*trace.Document),
		links:   make(map[int][]byte),
		first:   make(map[datasetRef][32]byte),
	}
}

func (o *clientOut) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// keep records a finished job. A result not seen before gets the
// k-anonymity check; under tracing the job's span tree is fetched. Both
// happen after t3, outside the job's timed interval.
func (o *clientOut) keep(hc *httpClient, rec *jobRec, payload []byte, in *inputs, traced bool) [32]byte {
	sum := sha256.Sum256(payload)
	o.hashes[rec] = sum
	o.jobs = append(o.jobs, rec)
	if _, ok := o.results[sum]; !ok {
		if d, err := checkPayload(payload, in); err != nil {
			o.fail("job %s: %v", rec.id, err)
		} else {
			o.results[sum] = d
		}
	}
	if traced && rec.class != "hit" {
		st, body, err := hc.call("GET", "/v1/jobs/"+rec.id+"/trace", nil)
		doc := new(trace.Document)
		if err == nil && st == http.StatusOK && json.Unmarshal(body, doc) == nil {
			o.traces[rec] = doc
		} else {
			o.fail("job %s: trace unavailable (status %d, %v)", rec.id, st, err)
		}
	}
	return sum
}

// checkPayload checks the release a result carries and returns its
// counters. The policy allows no suppression, and a delta edit keeps the
// row count, so every release must hold all the workload's rows.
func checkPayload(payload []byte, in *inputs) (*decoded, error) {
	released, err := releasedCSV(payload)
	if err == nil {
		err = checkRelease(released, in.qiCols, k, 0, in.w.rows)
	}
	d := new(decoded)
	if err == nil {
		err = d.decode(payload)
	}
	return d, err
}

// start sets the daemon up repeatedly, timing each set-up, and keeps the
// last one running: at least setupMinReps times, then until setupBudget
// is spent or setupMaxReps is reached, so setup_s is a median of many
// where one set-up takes a millisecond and of a few where it runs a job.
func start(in *inputs, dir string, traced bool) (*phase, error) {
	p := &phase{in: in, traced: traced, linkPayloads: make(map[int][]byte)}
	var spent time.Duration
	for r := 1; ; r++ {
		ddir, err := os.MkdirTemp(dir, "daemon-")
		if err != nil {
			return nil, err
		}
		t := time.Now()
		d, err := startDaemon(in.w, ddir, traced)
		if err == nil && in.w.delta {
			if err = p.submitParent(d); err != nil {
				d.close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t)
		spent += took
		p.setup = append(p.setup, took.Seconds())
		if r >= setupMinReps && (spent >= setupBudget || r >= setupMaxReps) {
			p.d = d
			if p.parentPayload != nil {
				if _, err := checkPayload(p.parentPayload, in); err != nil {
					p.failures = append(p.failures, fmt.Sprintf("retain-state parent: %v", err))
				}
			}
			return p, nil
		}
		d.close()
	}
}

func (p *phase) submitParent(d *daemon) error {
	hc := newHTTPClient(d.url)
	defer hc.closeIdle()
	body := p.in.body(datasetRef{}, policyParent)
	rec, payload, err := hc.runJob("/v1/jobs", body, false)
	if err != nil {
		return fmt.Errorf("retain-state parent: %w", err)
	}
	p.parentID, p.parentPayload = rec.id, payload
	return nil
}

// run drives the closed loop for the given time, then waits for every
// client's last job: no job is cut off, and elapsed ends at the last
// result.
func (p *phase) run(d time.Duration) error {
	hc := newHTTPClient(p.d.url)
	defer hc.closeIdle()
	var err error
	if p.before, err = scrape(hc); err != nil {
		return err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapStart = ms.HeapInuse
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC
	p.cpu0 = cpuTime()
	p.epoch = time.Now()
	deadline := p.epoch.Add(d)

	outs := make([]*clientOut, p.in.w.clients)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if p.in.w.delta {
				outs[c] = p.deltaClient(deadline)
			} else {
				outs[c] = p.client(c, deadline)
			}
		}(c)
	}
	wg.Wait()
	end := p.epoch
	p.cpu = cpuTime() - p.cpu0
	runtime.ReadMemStats(&ms)
	p.alloc, p.gcs = ms.TotalAlloc-alloc0, ms.NumGC-gc0
	if p.after, err = scrape(hc); err != nil {
		return err
	}

	p.hashes = make(map[*jobRec][32]byte)
	p.results = make(map[[32]byte]*decoded)
	p.traces = make(map[*jobRec]*trace.Document)
	for _, o := range outs {
		p.jobs = append(p.jobs, o.jobs...)
		p.attempted += o.attempted
		p.failures = append(p.failures, o.failures...)
		p.samples = append(p.samples, o.samples...)
		p.edits = append(p.edits, o.edits...)
		for h, d := range o.results {
			p.results[h] = d
		}
		for r, h := range o.hashes {
			p.hashes[r] = h
		}
		for r, doc := range o.traces {
			p.traces[r] = doc
		}
		for i, b := range o.links {
			p.linkPayloads[i] = b
		}
	}
	for _, r := range p.jobs {
		if r.t3.After(end) {
			end = r.t3
		}
	}
	p.elapsed = end.Sub(p.epoch)
	return nil
}

// client is one closed-loop client of a submit workload.
func (p *phase) client(c int, deadline time.Time) *clientOut {
	w := p.in.w
	o := newClientOut()
	hc := newHTTPClient(p.d.url)
	defer hc.closeIdle()
	sched := newSchedule(p.in.seed, c, w.bases, w.rows, w.repeats)
	for time.Now().Before(deadline) {
		ds, fresh := sched.next()
		body := p.in.body(ds, policyCold)
		o.attempted++
		rec, payload, err := hc.runJob("/v1/jobs", body, false)
		if err != nil {
			o.fail("dataset %s: %v", ds, err)
			continue
		}
		rec.ds = ds
		sched.completed(ds)
		// Every result for a dataset — cache hit or re-run after eviction —
		// must repeat the first byte for byte.
		sum := o.keep(hc, rec, payload, p.in, p.traced)
		if want, ok := o.first[ds]; !ok {
			o.first[ds] = sum
		} else if want != sum {
			o.fail("dataset %s: %s result differs from the first result for the dataset", ds, rec.class)
		}
		if c == 0 && fresh && rec.class == "cold" && len(o.samples) < w.samples {
			o.samples = append(o.samples, sample{ds: ds, body: body, payload: payload})
		}
	}
	return o
}

// deltaClient chains delta jobs, each against the previous link.
func (p *phase) deltaClient(deadline time.Time) *clientOut {
	o := newClientOut()
	hc := newHTTPClient(p.d.url)
	defer hc.closeIdle()
	b := p.in.bases[0][0]
	lines := append([]string(nil), b.lines...)
	rng := rand.New(rand.NewSource(subSeed(p.in.seed, 3)))
	parent := p.parentID
	o.links[-1] = p.parentPayload
	for i := 0; time.Now().Before(deadline); i++ {
		e := nextEdit(rng, &lines)
		body, err := deltaBody(b.header, e)
		if err != nil {
			o.fail("delta %d: %v", i, err)
			break
		}
		o.attempted++
		rec, payload, err := hc.runJob("/v1/jobs/"+parent+"/delta", body, true)
		if err != nil {
			// The chain cannot go on from a link that does not exist.
			o.fail("delta %d of %s: %v", i, parent, err)
			break
		}
		rec.ds = datasetRef{rot: i}
		parent = rec.id
		o.edits = append(o.edits, e)
		o.keep(hc, rec, payload, p.in, p.traced)
		o.links[i] = payload
		delete(o.links, i-3)
	}
	return o
}

// finish measures the heap the daemon kept, after dropping everything
// the benchmark itself held, then shuts the daemon down.
func (p *phase) finish() uint64 {
	p.samples, p.linkPayloads, p.parentPayload = nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.d.close()
	if ms.HeapInuse < p.heapStart {
		return 0
	}
	return ms.HeapInuse - p.heapStart
}

// libraryChecks compares the daemon's results with the library path. A
// submit workload re-runs its sampled cold jobs; a delta workload re-runs
// its chain's last link as a cold job over the edited table. With rp from
// a traced run, each sample is also replayed as a delta job, pricing the
// delta layers on the same table.
func (p *phase) libraryChecks(rp *replay) {
	fail := func(format string, args ...any) {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
	if !p.in.w.delta {
		for i, s := range p.samples {
			rp.job = fmt.Sprintf("replay-%d", i)
			lib, table, qi, err := coldPipeline(s.body, rp)
			if err == nil {
				err = samePayload(s.payload, lib)
			}
			if err != nil {
				fail("sample %s: %v", s.ds, err)
				continue
			}
			if !p.traced {
				continue
			}
			b := p.in.bases[s.ds.client][s.ds.base]
			lines := append(append([]string(nil), b.lines[s.ds.rot:]...), b.lines[:s.ds.rot]...)
			e := nextEdit(rand.New(rand.NewSource(subSeed(p.in.seed, 4, int64(i)))), &lines)
			state, err := retainState(table, qi)
			if err == nil {
				_, err = deltaPipeline(table, qi, state, e, rp)
			}
			if err != nil {
				fail("sample %s delta replay: %v", s.ds, err)
			}
		}
		return
	}
	first := p.in.bases[0][0].csvText(0)
	last := len(p.edits) - 1
	links := []int{last + 1}
	if p.traced {
		links = nil
		for i := last - p.in.w.samples + 1; i <= last; i++ {
			if i >= 0 {
				links = append(links, i)
			}
		}
		links = append(links, last+1)
	}
	for _, i := range links {
		// Link i ran against the table the first i edits made; a cold run
		// over it must equal link i-1, and link i's delta must equal
		// link i. i == last+1 is the check of the last link alone.
		table, err := foldEdits(first, p.edits[:i])
		if err != nil {
			fail("delta chain: %v", err)
			return
		}
		var csv strings.Builder
		if err := table.WriteCSV(&csv); err != nil {
			fail("delta chain: %v", err)
			return
		}
		body, err := json.Marshal(service.SubmitRequest{CSV: csv.String(), QI: p.in.qiSpec, Policy: service.Policy{K: k}})
		if err != nil {
			fail("delta chain: %v", err)
			return
		}
		crp := rp
		if i == last+1 {
			crp = newReplay(rp.epoch) // the chain check is not a replay sample
		}
		crp.job = fmt.Sprintf("replay-link-%d", i)
		lib, table, qi, err := coldPipeline(body, crp)
		if err == nil {
			err = samePayload(p.linkPayloads[i-1], lib)
		}
		if err != nil {
			fail("delta chain link %d: cold run over the edited table: %v", i-1, err)
			continue
		}
		if i > last {
			continue
		}
		state, err := retainState(table, qi)
		if err == nil {
			lib, err = deltaPipeline(table, qi, state, p.edits[i], rp)
		}
		if err == nil {
			err = samePayload(p.linkPayloads[i], lib)
		}
		if err != nil {
			fail("delta chain link %d replay: %v", i, err)
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
