package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRegistry builds a deterministic registry exercising every metric
// kind, labels, escaping, and histogram expansion — the fixture behind the
// golden test.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("incognito_nodes_checked_total", "Generalization nodes whose k-anonymity was tested explicitly.").Add(42)
	r.Counter("incognito_cells_total", "Cells run, by algorithm.", "algorithm", "Basic Incognito").Add(3)
	r.Counter("incognito_cells_total", "Cells run, by algorithm.", "algorithm", "Cube Incognito").Add(1)
	r.CounterFunc("incognito_runs_total", "Runs started.", func() float64 { return 5 })
	r.Gauge("incognito_goroutines", "Current number of goroutines.").Set(7)
	r.GaugeFunc("incognito_progress_nodes_visited", "Nodes processed so far.", func() float64 { return 19 })
	h := r.Histogram("incognito_freqset_groups", "Groups per materialized frequency set.", []float64{1, 10, 100})
	for _, v := range []float64{1, 4, 6, 50, 200} {
		h.Observe(v)
	}
	r.Histogram("incognito_phase_seconds", "Phase durations.", []float64{0.001, 0.01}, "phase", `odd"label\value`).Observe(0.005)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	path := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Determinism: a second render must be byte-identical.
	var sb2 strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != got {
		t.Error("two renders of identical registries differ")
	}
}

func TestWritePrometheusValid(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	families := parsePrometheus(t, sb.String())
	if families["incognito_nodes_checked_total"].kind != "counter" {
		t.Error("missing counter family")
	}
	if n := len(families["incognito_cells_total"].samples); n != 2 {
		t.Errorf("labeled counter has %d samples, want 2", n)
	}
	if f := families["incognito_runs_total"]; f.kind != "counter" || len(f.samples) != 1 || f.samples[0].value != 5 {
		t.Errorf("counter func family = %+v, want one counter sample of 5", f)
	}
	hist := families["incognito_freqset_groups"]
	if hist.kind != "histogram" {
		t.Fatal("missing histogram family")
	}
	// Cumulative buckets: le=1 → 1, le=10 → 3, le=100 → 4, +Inf → 5 = _count.
	wantBuckets := map[string]float64{"1": 1, "10": 3, "100": 4, "+Inf": 5}
	var count, sum float64
	for _, s := range hist.samples {
		switch s.suffix {
		case "_bucket":
			le := s.labels["le"]
			if want, ok := wantBuckets[le]; !ok || s.value != want {
				t.Errorf("bucket le=%q = %v, want %v", le, s.value, want)
			}
		case "_count":
			count = s.value
		case "_sum":
			sum = s.value
		}
	}
	if count != 5 || sum != 1+4+6+50+200 {
		t.Errorf("histogram count=%v sum=%v", count, sum)
	}
}

// promFamily is one parsed metric family: its declared type and samples.
type promFamily struct {
	kind    string
	samples []promSample
}

// promSample is one exposition line: the family name suffix (_bucket,
// _sum, _count, or ""), parsed labels, and the value.
type promSample struct {
	suffix string
	labels map[string]string
	value  float64
}

var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	promLabelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// parsePrometheus validates text-format 0.0.4 output line by line — every
// sample must follow a TYPE declaration for its family, carry well-formed
// labels, and parse as a float — and returns the families. It is the
// in-repo stand-in for a real Prometheus scraper's parser. It also lints
// the naming convention: a family whose name ends in _total must be a
// counter.
func parsePrometheus(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := make(map[string]*promFamily)
	helped := make(map[string]bool)
	var current string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if m := promHelpRe.FindStringSubmatch(line); m != nil {
			if helped[m[1]] {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, m[1])
			}
			helped[m[1]] = true
			continue
		}
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			if _, dup := families[m[1]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, m[1])
			}
			families[m[1]] = &promFamily{kind: m[2]}
			current = m[1]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", ln+1, line)
			continue
		}
		name, labelText, valueText := m[1], m[3], m[4]
		base, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, sfx)
			if trimmed != name {
				if f, ok := families[trimmed]; ok && f.kind == "histogram" {
					base, suffix = trimmed, sfx
				}
				break
			}
		}
		f := families[base]
		if f == nil {
			t.Errorf("line %d: sample %q precedes its TYPE declaration", ln+1, name)
			continue
		}
		if base != current {
			t.Errorf("line %d: sample for %q interleaved into family %q", ln+1, base, current)
		}
		labels := make(map[string]string)
		if labelText != "" {
			for _, pair := range splitLabelPairs(labelText) {
				lm := promLabelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Errorf("line %d: malformed label %q", ln+1, pair)
					continue
				}
				labels[lm[1]] = lm[2]
			}
		}
		v, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", ln+1, valueText, err)
			continue
		}
		f.samples = append(f.samples, promSample{suffix: suffix, labels: labels, value: v})
	}
	for name, f := range families {
		if !helped[name] {
			t.Errorf("family %s has TYPE but no HELP", name)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
		if strings.HasSuffix(name, "_total") && f.kind != "counter" {
			t.Errorf("family %s ends in _total but is a %s", name, f.kind)
		}
	}
	return families
}

// splitLabelPairs splits `a="1",b="2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	var b strings.Builder
	inQuotes, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
		case r == '\\':
			escaped = true
		case r == '"':
			inQuotes = !inQuotes
		case r == ',' && !inQuotes:
			out = append(out, b.String())
			b.Reset()
			continue
		}
		b.WriteRune(r)
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}
