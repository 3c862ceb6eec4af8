package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"incognito/internal/service"
	"incognito/internal/telemetry"
)

// daemon is an in-process service.Service behind a loopback HTTP server,
// configured like cmd/incognitod's defaults.
type daemon struct {
	svc   *service.Service
	srv   *http.Server
	url   string
	dir   string
	serve chan error
}

// startDaemon builds the service and its listener and returns once the
// daemon accepts submissions (journal replay finished, /readyz 200).
// Tracing is off unless traced; a durable daemon journals and
// checkpoints under dir.
func startDaemon(w workload, dir string, traced bool) (*daemon, error) {
	cfg := service.Config{
		Workers:              2,
		QueueDepth:           64,
		CacheMaxBytes:        64 << 20,
		CacheMaxEntries:      256,
		AllowFileHierarchies: true,
		DrainTimeout:         30 * time.Second,
		Registry:             telemetry.NewRegistry(),
		TraceJobs:            -1,
	}
	if traced {
		cfg.TraceJobs = 64
	}
	if w.durable {
		cfg.JournalDir = filepath.Join(dir, "journal")
		cfg.CheckpointDir = filepath.Join(dir, "checkpoints")
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		return nil, err
	}
	d := &daemon{
		svc:   svc,
		srv:   &http.Server{Handler: svc.Handler()},
		url:   "http://" + ln.Addr().String(),
		dir:   dir,
		serve: make(chan error, 1),
	}
	go func() { d.serve <- d.srv.Serve(ln) }()
	for svc.Recovering() {
		time.Sleep(100 * time.Microsecond)
	}
	resp, err := http.Get(d.url + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close drains the service, stops the HTTP server, waits for it and
// removes the daemon's directory.
func (d *daemon) close() {
	d.svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // an idle loopback server shuts down at once
	<-d.serve
	_ = os.RemoveAll(d.dir)
}

// scrape reads /metrics into name → value, summing series of one name.
func scrape(hc *httpClient) (map[string]float64, error) {
	st, body, err := hc.call("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", st)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// httpClient is one closed-loop client's connection to the daemon.
type httpClient struct {
	url string
	hc  *http.Client
}

func newHTTPClient(url string) *httpClient {
	return &httpClient{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
}

func (c *httpClient) closeIdle() { c.hc.CloseIdleConnections() }

// call sends one request and returns the status and the whole body.
func (c *httpClient) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// call is one HTTP exchange a job made, as a client span.
type call struct {
	name       string
	start, end time.Time
}

// jobRec is one submission as the client saw it.
type jobRec struct {
	ds    datasetRef
	class string // cold, hit or delta
	id    string
	// t0: POST sent; t1: POST answered; t2: done seen (t1 for a job born
	// done); t3: last byte of the result read.
	t0, t1, t2, t3 time.Time
	cpu            time.Duration // process CPU time at t3
	polls          int
	status         service.StatusResponse // the last status poll
	calls          []call
	resultLen      int
}

func (r *jobRec) latency() time.Duration { return r.t3.Sub(r.t0) }

// runJob submits body to path, polls the job every pollEvery ms until it
// is terminal, and reads its result: one closed-loop iteration.
func (c *httpClient) runJob(path string, body []byte, isDelta bool) (*jobRec, []byte, error) {
	rec := &jobRec{class: "cold"}
	if isDelta {
		rec.class = "delta"
	}
	do := func(name, method, p string, b []byte) (int, []byte, error) {
		start := time.Now()
		st, out, err := c.call(method, p, b)
		rec.calls = append(rec.calls, call{name, start, time.Now()})
		return st, out, err
	}
	rec.t0 = time.Now()
	st, out, err := do("submit", "POST", path, body)
	rec.t1 = time.Now()
	if err != nil {
		return rec, nil, fmt.Errorf("submit: %w", err)
	}
	if st != http.StatusOK && st != http.StatusAccepted {
		return rec, nil, fmt.Errorf("submit refused with %d: %s", st, bytes.TrimSpace(out))
	}
	var sr service.SubmitResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		return rec, nil, fmt.Errorf("submit response: %w", err)
	}
	rec.id = sr.ID
	if sr.CacheHit || sr.Coalesced {
		rec.class = "hit"
	}
	state := sr.State
	rec.t2 = rec.t1
	for !state.Terminal() {
		time.Sleep(pollEvery * time.Millisecond)
		st, out, err := do("poll", "GET", "/v1/jobs/"+rec.id, nil)
		rec.polls++
		if err != nil {
			return rec, nil, fmt.Errorf("poll: %w", err)
		}
		if st != http.StatusOK {
			return rec, nil, fmt.Errorf("poll answered %d: %s", st, bytes.TrimSpace(out))
		}
		rec.status = service.StatusResponse{}
		if err := json.Unmarshal(out, &rec.status); err != nil {
			return rec, nil, fmt.Errorf("poll response: %w", err)
		}
		state = rec.status.State
		rec.t2 = time.Now()
	}
	if state != service.StateDone {
		return rec, nil, fmt.Errorf("job %s ended %s: %s", rec.id, state, rec.status.Error)
	}
	st, out, err = do("result", "GET", "/v1/jobs/"+rec.id+"/result", nil)
	rec.t3, rec.cpu = time.Now(), cpuTime()
	if err != nil {
		return rec, nil, fmt.Errorf("result: %w", err)
	}
	if st != http.StatusOK {
		return rec, nil, fmt.Errorf("result answered %d: %s", st, bytes.TrimSpace(out))
	}
	rec.resultLen = len(out)
	return rec, out, nil
}
