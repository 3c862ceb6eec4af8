package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"incognito/internal/dataset"
	"incognito/internal/sched"
	"incognito/internal/telemetry"
)

// schedCounters is a point-in-time reading of the scheduler's cumulative
// counters; cells record the difference between two readings so each
// parallel run's numbers are its own.
type schedCounters struct {
	tasks            int64
	busy, span, wall time.Duration
}

func schedSnapshot(m *sched.Metrics) schedCounters {
	return schedCounters{m.Tasks(), m.Busy(), m.WorkerSpan(), m.ParallelWall()}
}

func (c schedCounters) sub(o schedCounters) schedCounters {
	return schedCounters{c.tasks - o.tasks,
		c.busy - o.busy, c.span - o.span, c.wall - o.wall}
}

// ms renders a duration as fractional milliseconds for the JSON reports.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// ParallelCell is one serial-vs-parallel comparison: the same (dataset,
// QI size, k, algorithm) cell timed at parallelism 1 and at the requested
// worker bound, with a determinism cross-check on solutions and counters.
type ParallelCell struct {
	Dataset    string  `json:"dataset"`
	Rows       int     `json:"rows"`
	QISize     int     `json:"qi_size"`
	K          int64   `json:"k"`
	Algo       string  `json:"algo"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// The execution environment and the scheduler's own accounting for the
	// parallel run: the process GOMAXPROCS, the effective worker bound the
	// cell ran with (the knob clamped to GOMAXPROCS), and the Amdahl split
	// of the parallel run's wall time — time inside worker-dispatched
	// scheduler phases vs. the serial remainder between them.
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Workers         int     `json:"workers"`
	ParallelPhaseMS float64 `json:"parallel_phase_ms"`
	SerialPhaseMS   float64 `json:"serial_phase_ms"`
	SchedTasks      int64   `json:"sched_tasks"`
	Utilization     float64 `json:"utilization"`
	Solutions       int     `json:"solutions"`
	MinHeight       int     `json:"min_height"`
	// The serial run's work counters — deterministic for a given (dataset,
	// rows, seed, qi, k, algorithm), which is what the CI bench-regression
	// gate pins against golden values under results/.
	NodesChecked int `json:"nodes_checked"`
	NodesMarked  int `json:"nodes_marked"`
	Candidates   int `json:"candidates"`
	TableScans   int `json:"table_scans"`
	Rollups      int `json:"rollups"`
	// Identical reports whether the parallel run reproduced the serial
	// run's solution count, minimum height, and every Stats counter — the
	// tentpole's bit-identical-results guarantee.
	Identical bool `json:"identical"`
}

// ParallelReport is the JSON document cmd/bench -experiment parallel
// emits (recorded at the repo root as BENCH_parallel.json).
type ParallelReport struct {
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Parallelism int            `json:"parallelism"` // the knob value; 0 means GOMAXPROCS
	Cells       []ParallelCell `json:"cells"`
}

// Parallel runs the serial-vs-parallel comparison for each algorithm on
// one (dataset, QI size, k) workload. Serial and parallel cells alternate
// per algorithm so the comparison is as back-to-back as the harness can
// make it. ctx cancels the sweep between and inside cells; obs (optional)
// instruments every cell.
func Parallel(ctx context.Context, obs Obs, d *dataset.Dataset, qiSize int, k int64, algos []Algo, parallelism int, progress Progress) ([]ParallelCell, error) {
	if obs.Metrics == nil {
		// The cells record the scheduler's task and phase-time counters
		// even when the caller asked for no exported telemetry; a throwaway
		// registry provides the handles.
		obs.Metrics = telemetry.NewRegistry().NewRunMetrics()
	}
	sm := obs.Metrics.Sched()
	var cells []ParallelCell
	for _, a := range algos {
		serial, err := RunCell(ctx, obs, d, qiSize, k, a, 1)
		if err != nil {
			return nil, err
		}
		before := schedSnapshot(sm)
		par, err := RunCell(ctx, obs, d, qiSize, k, a, parallelism)
		if err != nil {
			return nil, err
		}
		sched := schedSnapshot(sm).sub(before)
		cell := ParallelCell{
			Dataset:      d.Name,
			Rows:         d.Table.NumRows(),
			QISize:       qiSize,
			K:            k,
			Algo:         a.String(),
			SerialMS:     ms(serial.Elapsed),
			ParallelMS:   ms(par.Elapsed),
			Solutions:    serial.Solutions,
			MinHeight:    serial.MinHeight,
			NodesChecked: serial.Stats.NodesChecked,
			NodesMarked:  serial.Stats.NodesMarked,
			Candidates:   serial.Stats.Candidates,
			TableScans:   serial.Stats.TableScans,
			Rollups:      serial.Stats.Rollups,
			Identical: serial.Solutions == par.Solutions &&
				serial.MinHeight == par.MinHeight &&
				serial.Stats == par.Stats,
		}
		cell.GOMAXPROCS = runtime.GOMAXPROCS(0)
		cell.Workers = par.Workers
		cell.ParallelPhaseMS = ms(sched.wall)
		if rest := par.Elapsed - sched.wall; rest > 0 {
			cell.SerialPhaseMS = ms(rest)
		}
		cell.SchedTasks = sched.tasks
		if sched.span > 0 {
			cell.Utilization = float64(sched.busy) / float64(sched.span)
			if cell.Utilization > 1 {
				cell.Utilization = 1 // clock skew between per-task and per-phase readings
			}
		}
		if par.Elapsed > 0 {
			cell.Speedup = float64(serial.Elapsed) / float64(par.Elapsed)
		}
		progress.Log("%s | QID=%d k=%d | %-22s | serial %v, parallel %v (%.2fx, identical=%v)",
			d.Name, qiSize, k, a, serial.Elapsed.Round(time.Millisecond),
			par.Elapsed.Round(time.Millisecond), cell.Speedup, cell.Identical)
		cells = append(cells, cell)
	}
	return cells, nil
}

// WriteJSON renders the report as indented JSON.
func (r *ParallelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as an aligned text table.
func (r *ParallelReport) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Serial vs parallel (GOMAXPROCS=%d, parallelism=%d)\n", r.GOMAXPROCS, r.Parallelism); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s QID=%d k=%d %-24s serial %.1fms parallel %.1fms speedup %.2fx workers=%d util=%.2f identical=%v\n",
			c.Dataset, c.QISize, c.K, c.Algo, c.SerialMS, c.ParallelMS, c.Speedup, c.Workers, c.Utilization, c.Identical); err != nil {
			return err
		}
	}
	return nil
}

// NewParallelReport assembles a report header for the current process.
func NewParallelReport(parallelism int) *ParallelReport {
	return &ParallelReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Parallelism: parallelism}
}
