package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	incognito "incognito"
	"incognito/internal/qispec"
	"incognito/internal/service"
)

// replay times the library calls a job makes, from outside. The daemon
// makes them in this order: decode → ReadCSV → ParseQI + RunFingerprint →
// AnonymizeContext → Best → Apply → WriteCSV → marshal; a delta job runs
// ApplyRowDelta → AnonymizeDelta in place of the parse and the cold
// search. Each call is kept as a span of the sample being replayed.
type replay struct {
	epoch  time.Time
	job    string
	total  map[string]time.Duration
	calls  map[string]int
	spans  []span
	counts []incognito.DeltaCounters
}

func newReplay(epoch time.Time) *replay {
	return &replay{epoch: epoch, total: make(map[string]time.Duration), calls: make(map[string]int)}
}

func (r *replay) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.total[name] += d
	r.calls[name]++
	r.spans = append(r.spans, span{Job: r.job, Name: name, Start: start.Sub(r.epoch).Microseconds(), Dur: d.Microseconds()})
	return err
}

// coldPipeline runs a submission body through the calls a cold daemon job
// makes and returns the marshaled result payload — byte-identical to the
// daemon's when both are correct — plus the parsed table and bound QI.
func coldPipeline(body []byte, rp *replay) ([]byte, *incognito.Table, []incognito.QI, error) {
	var (
		req   service.SubmitRequest
		table *incognito.Table
		qi    []incognito.QI
		res   *incognito.Result
	)
	err := rp.time("decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	})
	if err == nil {
		err = rp.time("parse", func() (err error) {
			table, err = incognito.ReadCSV(strings.NewReader(req.CSV))
			return err
		})
	}
	if err == nil {
		err = rp.time("bind", func() (err error) {
			if qi, err = qispec.ParseQI(req.QI, qispec.Options{AllowFiles: true}); err != nil {
				return err
			}
			_, err = incognito.RunFingerprint(table, qi, incognito.Config{K: req.Policy.K})
			return err
		})
	}
	if err == nil {
		err = rp.time("anonymize", func() (err error) {
			res, err = incognito.AnonymizeContext(context.Background(), table, qi,
				incognito.Config{K: req.Policy.K, Tracer: incognito.NewTracer()})
			return err
		})
	}
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := release(res, rp)
	return out, table, qi, err
}

// release renders a result the way the daemon does: Best under the
// default height criterion, Apply, WriteCSV, and the payload marshal.
func release(res *incognito.Result, rp *replay) ([]byte, error) {
	if res.Len() == 0 {
		return nil, fmt.Errorf("no %d-anonymous generalization", k)
	}
	var (
		best incognito.Solution
		view *incognito.Table
		csv  strings.Builder
		out  []byte
	)
	_ = rp.time("best", func() error { best, _ = res.Best(incognito.MinHeight()); return nil })
	err := rp.time("apply", func() (err error) { view, err = best.Apply(); return err })
	if err == nil {
		err = rp.time("render", func() error { return view.WriteCSV(&csv) })
	}
	if err != nil {
		return nil, err
	}
	p := service.ResultPayload{
		Solutions:   make([]service.SolutionPayload, 0, res.Len()),
		Complete:    res.Complete(),
		Best:        solutionPayload(best),
		ReleasedCSV: csv.String(),
		Stats: service.StatsPayload{
			NodesChecked: res.Stats().NodesChecked,
			NodesMarked:  res.Stats().NodesMarked,
			Candidates:   res.Stats().Candidates,
			TableScans:   res.Stats().TableScans,
			Rollups:      res.Stats().Rollups,
		},
	}
	for _, s := range res.Solutions() {
		p.Solutions = append(p.Solutions, solutionPayload(s))
	}
	err = rp.time("marshal", func() (err error) { out, err = json.Marshal(p); return err })
	return out, err
}

func solutionPayload(s incognito.Solution) service.SolutionPayload {
	return service.SolutionPayload{
		Levels: s.Levels(), Names: s.LevelNames(), Height: s.Height(), Precision: s.Precision(),
	}
}

// deltaPipeline replays a delta job: the edit is applied the way the
// daemon validates it, then AnonymizeDelta runs against state, which
// must have been captured from table. It returns the rendered payload.
func deltaPipeline(table *incognito.Table, qi []incognito.QI, state *incognito.RunState, e edit, rp *replay) ([]byte, error) {
	add, err := records(e.add)
	if err != nil {
		return nil, err
	}
	del, err := records(e.del)
	if err != nil {
		return nil, err
	}
	if err := rp.time("apply_row_delta", func() error {
		_, err := incognito.ApplyRowDelta(table, add, del)
		return err
	}); err != nil {
		return nil, err
	}
	var dres *incognito.DeltaResult
	if err := rp.time("delta", func() (err error) {
		dres, err = incognito.AnonymizeDelta(context.Background(), table, qi,
			incognito.Config{K: k, Tracer: incognito.NewTracer()}, state, add, del)
		return err
	}); err != nil {
		return nil, err
	}
	rp.counts = append(rp.counts, dres.Counters)
	return release(dres.Result, newReplay(rp.epoch))
}

// retainState runs the cold search with state capture, the parent a
// delta replay needs. Untimed: it is set-up for the replay.
func retainState(table *incognito.Table, qi []incognito.QI) (*incognito.RunState, error) {
	res, err := incognito.AnonymizeContext(context.Background(), table, qi,
		incognito.Config{K: k, RetainState: true})
	if err != nil {
		return nil, err
	}
	return res.State(), nil
}

// foldEdits applies a delta chain's edits to its first table with the
// library's own edit, giving the table the chain's last link describes.
func foldEdits(csvText string, edits []edit) (*incognito.Table, error) {
	t, err := incognito.ReadCSV(strings.NewReader(csvText))
	if err != nil {
		return nil, err
	}
	for i, e := range edits {
		add, err := records(e.add)
		if err != nil {
			return nil, err
		}
		del, err := records(e.del)
		if err != nil {
			return nil, err
		}
		if t, err = incognito.ApplyRowDelta(t, add, del); err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
	}
	return t, nil
}
