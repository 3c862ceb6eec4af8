package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// string, a # HELP and # TYPE line per family, histograms expanded into
// cumulative _bucket/_sum/_count series. No timestamps are emitted, so for
// a given registry state the output is byte-for-byte deterministic — the
// property the golden-file test pins. On a nil registry it writes nothing
// (an empty exposition is valid).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		var err error
		switch f.kind {
		case kindCounter:
			v := formatInt(s.counter.Load())
			if s.fn != nil {
				v = formatFloat(s.fn())
			}
			err = writeSample(w, f.name, s.labels, "", v)
		case kindGauge:
			v := (&Gauge{s: s}).Value()
			if s.fn != nil {
				v = s.fn()
			}
			err = writeSample(w, f.name, s.labels, "", formatFloat(v))
		case kindHistogram:
			err = s.writeHistogram(w, f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative bucket counts
// with the canonical le label, then _sum and _count.
func (s *series) writeHistogram(w *bufio.Writer, f *family) error {
	s.hmu.Lock()
	counts := append([]uint64(nil), s.counts...)
	sum, count := s.sum, s.count
	s.hmu.Unlock()

	var cum uint64
	for i, bound := range f.buckets {
		cum += counts[i]
		if err := writeSample(w, f.name+"_bucket", s.labels, `le="`+formatFloat(bound)+`"`, formatInt(int64(cum))); err != nil {
			return err
		}
	}
	cum += counts[len(f.buckets)]
	if err := writeSample(w, f.name+"_bucket", s.labels, `le="+Inf"`, formatInt(int64(cum))); err != nil {
		return err
	}
	if err := writeSample(w, f.name+"_sum", s.labels, "", formatFloat(sum)); err != nil {
		return err
	}
	return writeSample(w, f.name+"_count", s.labels, "", formatInt(int64(count)))
}

// writeSample renders one exposition line, merging the series labels with
// an optional extra label (the histogram le).
func writeSample(w *bufio.Writer, name, labels, extra, value string) error {
	all := labels
	switch {
	case all == "":
		all = extra
	case extra != "":
		all += "," + extra
	}
	if all != "" {
		all = "{" + all + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, all, value)
	return err
}

// escapeHelp applies the text-format escapes for HELP text: backslash and
// newline (quotes are legal there).
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, integral values without an exponent where
// possible.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
