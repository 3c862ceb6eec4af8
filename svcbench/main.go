// Command svcbench is the repository's end-to-end benchmark: a closed-loop
// load generator that drives an in-process incognitod service over
// loopback HTTP, from POST /v1/jobs to the last byte of the released CSV,
// checks every result, and with -trace 1 splits job time across the
// modules it passes through. See README.md next to this file.
//
// Usage:
//
//	go run . -workload adults-mixed -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with -trace 1 the
// per-layer ones). The line before it is a report with per-class latency
// percentiles, sample counts and the run's environment. The exit code is
// 1 when any job failed or any output check did not hold.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed every generated input, resubmission pick and edit derives from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "svcbench"), "scratch directory for journals, hierarchy files and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	}
	if len(ws) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: need -workload (%s or all), -seconds >= 1 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	status := 0
	for _, w := range ws {
		rep, res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svcbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(os.Stderr)
		for _, v := range []any{map[string]any{"report": rep}, res} {
			line, err := json.Marshal(v)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
				return 1
			}
			fmt.Println(string(line))
		}
		if !res.Correct {
			status = 1
		}
	}
	return status
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report describes the run: environment, sizes, per-class latencies and
// every failure.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Seconds     float64                `json:"seconds"`
	ElapsedS    float64                `json:"elapsed_s"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	NumCPU      int                    `json:"nproc"`
	GoVersion   string                 `json:"go_version"`
	SetupReps   int                    `json:"setup_reps"`
	Classes     map[string]classReport `json:"classes"`
	Metrics     map[string]metric      `json:"metrics"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedRatio float64                `json:"failed_ratio"`
	Failures    []string               `json:"failures,omitempty"`
	SpansFile   string                 `json:"spans_file,omitempty"`
}

func (r *report) print(f *os.File) {
	fmt.Fprintf(f, "svcbench: %s seed=%d traced=%v ran %.1fs (GOMAXPROCS=%d nproc=%d %s), %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Traced, r.ElapsedS, r.GOMAXPROCS, r.NumCPU, r.GoVersion, r.Attempted, r.Failed)
	for _, c := range []string{"cold", "hit", "delta"} {
		cr := r.Classes[c]
		if cr.Jobs == 0 {
			continue
		}
		p90 := "n/a (<100 samples)"
		if cr.P90ms != nil {
			p90 = fmt.Sprintf("%.1f ms", *cr.P90ms)
		}
		fmt.Fprintf(f, "  %-5s jobs=%d p50=%.1f ms p90=%s\n", c, cr.Jobs, *cr.P50ms, p90)
	}
	for _, msg := range r.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", msg)
	}
}

// runWorkload makes the workload's inputs and runs it: one untraced
// phase of the full length, or with traced an untraced and a traced phase
// of half the length each plus the library replay.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool, scratch string) (*report, *result, error) {
	dir, err := runDir(scratch)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	in, err := prepare(w, seed, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("inputs: %w", err)
	}
	rep := &report{
		Workload: w.name, Seed: seed, Traced: traced, Seconds: seconds.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	res := &result{}
	if !traced {
		p, e2e, err := runPhase(in, dir, seconds, false)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = e2e
		rep.fill(p, e2e)
	} else {
		a, e2eA, err := runPhase(in, dir, seconds/2, false)
		if err != nil {
			return nil, nil, err
		}
		b, e2eB, err := runPhase(in, dir, seconds/2, true)
		if err != nil {
			return nil, nil, err
		}
		ls, spans := b.layerSpans()
		res.Metrics = perLayer(a, b, ls, e2eA, e2eB)
		rep.fill(b, e2eB)
		rep.ElapsedS += a.elapsed.Seconds()
		rep.Attempted += a.attempted
		rep.Failures = append(a.failures, rep.Failures...)
		spans = append(spans, b.replay.spans...)
		if rep.SpansFile, err = writeSpans(scratch, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed), spans); err != nil {
			return nil, nil, err
		}
	}
	rep.Failed = len(rep.Failures)
	rep.FailedRatio = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	res.Attempted, res.Failed, res.Correct = max(rep.Attempted, 1), rep.Failed, rep.Failed == 0
	if len(rep.Failures) > 20 {
		rep.Failures = append(rep.Failures[:20], fmt.Sprintf("... and %d more", len(rep.Failures)-20))
	}
	return rep, res, nil
}

// runPhase sets a daemon up, runs the closed loop, checks every output,
// and returns the phase with its end-to-end metrics. A traced phase also
// replays its samples through the library calls.
func runPhase(in *inputs, dir string, d time.Duration, traced bool) (*phase, map[string]metric, error) {
	p, err := start(in, dir, traced)
	if err != nil {
		return nil, nil, err
	}
	if err := p.run(d); err != nil {
		p.d.close()
		return nil, nil, err
	}
	p.replay = newReplay(p.epoch)
	p.libraryChecks(p.replay)
	retained := p.finish()
	return p, p.endToEnd(retained), nil
}

func (r *report) fill(p *phase, e2e map[string]metric) {
	r.ElapsedS = p.elapsed.Seconds()
	r.SetupReps = len(p.setup)
	r.Classes = p.classes()
	r.Attempted += p.attempted
	r.Failures = append(r.Failures, p.failures...)
	r.Metrics = make(map[string]metric, len(e2e)+8)
	for name, m := range e2e {
		r.Metrics[name] = m
	}
	for c, cr := range r.Classes {
		if cr.P50ms != nil {
			r.Metrics[c+"_job_ms_p50"] = metric{*cr.P50ms, "ms"}
		}
		if cr.P90ms != nil {
			r.Metrics[c+"_job_ms_p90"] = metric{*cr.P90ms, "ms"}
		}
	}
	r.Metrics["failed_ratio"] = metric{float64(len(p.failures)) / float64(max(p.attempted, 1)), "ratio"}
}

// writeSpans writes spans, one JSON object a line, to scratch/traces/name.
func writeSpans(scratch, name string, spans []span) (string, error) {
	dir := filepath.Join(scratch, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, errors.Join(bw.Flush(), f.Close())
}
