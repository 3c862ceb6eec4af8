// Package telemetry is the runtime-telemetry layer of the repository: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with a Prometheus text-format exporter, an opt-in HTTP
// listener serving /metrics and net/http/pprof, a converter from
// internal/trace documents to Chrome trace-event JSON (openable in
// Perfetto), a periodic runtime.MemStats/goroutine sampler, and live
// progress counters rendered as structured log/slog events.
//
// Not to be confused with internal/metrics, which implements DATA-QUALITY
// metrics over released tables (precision, discernibility, average class
// size — properties of an anonymization). This package measures the
// RUNTIME: where wall-clock time went, how much memory the process used,
// how far a search has progressed. The two namespaces never overlap.
//
// Like internal/trace, the package is built around one invariant: every
// nil handle (*Registry, *Counter, *Gauge, *Histogram, *Progress,
// *RunMetrics) is a fully functional disabled instrument. All methods are
// nil-safe and allocation-free on the nil receiver, so instrumented code
// never branches on "is telemetry on?" and the hot paths pay nothing when
// it is off. Results are bit-identical with telemetry on or off.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds one process's runtime metrics, keyed by Prometheus metric
// name plus label set. All methods are safe for concurrent use, and every
// method of every handle it returns is nil-safe, so a nil *Registry is the
// canonical disabled registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Enabled reports whether the registry records anything (false on nil).
func (r *Registry) Enabled() bool { return r != nil }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// family is one metric name: its metadata plus every label combination
// registered under it.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64          // histogram upper bounds, ascending
	series  map[string]*series // keyed by rendered label string
}

// series is one (name, labels) time series. Exactly one of the value
// fields is used, per the family's kind.
type series struct {
	labels string // rendered `key="value",…` or "" for unlabeled

	counter atomic.Int64
	gauge   atomic.Uint64 // float64 bits
	fn      func() float64

	hmu     sync.Mutex
	buckets []float64 // the family's bounds, shared read-only
	counts  []uint64  // len(buckets)+1; last bucket is +Inf
	sum     float64
	count   uint64
}

// Counter is a monotonically increasing metric. The nil *Counter no-ops.
type Counter struct{ s *series }

// Add accumulates n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.s.counter.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.counter.Load()
}

// Gauge is a metric that can go up and down. The nil *Gauge no-ops.
type Gauge struct{ s *series }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.gauge.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.s.gauge.Load())
}

// Histogram is a fixed-bucket distribution. The nil *Histogram no-ops.
type Histogram struct{ s *series }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	s := h.s
	s.hmu.Lock()
	i := sort.SearchFloat64s(s.buckets, v) // first bucket with bound >= v
	s.counts[i]++
	s.sum += v
	s.count++
	s.hmu.Unlock()
}

// validName is the Prometheus metric-name grammar; label names share it
// minus the colon.
var (
	validName  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	validLabel = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter registers (or finds) a counter. labels are alternating
// key/value pairs; registering the same name and labels twice returns the
// same handle, and re-registering a name with a different kind panics (a
// programming error, like a duplicate flag). Nil-safe: a nil registry
// returns a nil handle.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.register(name, help, kindCounter, nil, nil, labels)}
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.register(name, help, kindGauge, nil, nil, labels)}
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time — the bridge for values that already live elsewhere as atomics
// (e.g. live Progress counters). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, nil, fn, labels)
}

// CounterFunc registers a counter whose value is computed by fn at export
// time: GaugeFunc for monotone values that already live elsewhere as
// atomics, so scrapers see them typed as counters. fn must be safe for
// concurrent use and never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, nil, fn, labels)
}

// Histogram registers (or finds) a fixed-bucket histogram. buckets are
// upper bounds in ascending order; an implicit +Inf bucket is always
// appended.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{s: r.register(name, help, kindHistogram, buckets, nil, labels)}
}

func (r *Registry) register(name, help string, kind metricKind, buckets []float64, fn func() float64, labels []string) *series {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: checkBuckets(name, buckets), series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key, fn: fn}
		if kind == kindHistogram {
			s.buckets = f.buckets
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

func checkBuckets(name string, buckets []float64) []float64 {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly ascending at %d", name, i))
		}
	}
	return append([]float64(nil), buckets...)
}

// renderLabels turns alternating key/value pairs into the canonical
// `key="value",…` form with keys sorted, so the same label set always maps
// to the same series regardless of argument order.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q (want key/value pairs)", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validLabel.MatchString(labels[i]) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes for label
// values: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Default bucket layouts, shared so every exporter and test agrees on the
// shape of the core distributions.
var (
	// LatencyBuckets spans 100µs to two minutes — phase latencies from a
	// single rollup on the Patients table up to a full Lands End sweep.
	LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
	// SizeBuckets is decade-spaced for frequency-set group counts.
	SizeBuckets = []float64{1, 10, 100, 1000, 10000, 100000, 1e6, 1e7}
	// FanInBuckets is power-of-two-spaced for rollup fan-in ratios (source
	// groups folded into each output group).
	FanInBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
)
