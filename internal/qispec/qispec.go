// Package qispec parses the textual run-request surface the CLIs and the
// incognitod service share: the 'Col=hierarchy;Col=hierarchy;…'
// quasi-identifier spec, hierarchy constructors, algorithm names, and
// minimality-criterion names. One grammar in one place is what makes a
// daemon-served run comparable to a CLI run on the same flags — both sides
// parse the exact same strings into the exact same configuration.
package qispec

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	incognito "incognito"
)

// Options adjust parsing for the caller's trust level.
type Options struct {
	// AllowFiles permits the hierarchy kinds that read the local
	// filesystem (taxonomy:FILE.json, csv:FILE.csv). The CLIs enable it;
	// the network-facing service leaves it off by default so a request
	// body cannot make the daemon open arbitrary paths.
	AllowFiles bool
}

// ParseQI parses 'Col=hier;Col=hier;…' into bound-ready QI descriptions.
func ParseQI(spec string, o Options) ([]incognito.QI, error) {
	var out []incognito.QI
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.Index(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("incognito: bad QI entry %q (want Col=hierarchy)", part)
		}
		col := strings.TrimSpace(part[:eq])
		h, err := ParseHierarchy(strings.TrimSpace(part[eq+1:]), o)
		if err != nil {
			return nil, fmt.Errorf("incognito: column %q: %w", col, err)
		}
		out = append(out, incognito.QI{Column: col, Hierarchy: h})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("incognito: empty -qi spec")
	}
	return out, nil
}

// Canonical re-renders a QI spec in its normal form — parts trimmed, empty
// entries dropped, joined with single semicolons — so sibling spellings of
// the same spec ("A=suppress; B=round:2" vs "A=suppress;B=round:2") map to
// one cache identity. It does not validate; feed it only specs ParseQI
// accepted.
func Canonical(spec string) string {
	var parts []string
	for _, part := range strings.Split(spec, ";") {
		if part = strings.TrimSpace(part); part != "" {
			parts = append(parts, part)
		}
	}
	return strings.Join(parts, ";")
}

// ParseHierarchy parses one hierarchy constructor.
func ParseHierarchy(spec string, o Options) (*incognito.Hierarchy, error) {
	kind, arg := spec, ""
	if i := strings.Index(spec, ":"); i >= 0 {
		kind, arg = spec[:i], spec[i+1:]
	}
	switch kind {
	case "suppress":
		return incognito.Suppression(), nil
	case "round":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("round wants a level count, got %q", arg)
		}
		return incognito.RoundDigits(n), nil
	case "date":
		return incognito.Dates(), nil
	case "interval":
		parts := strings.SplitN(arg, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("interval wants origin:w1,w2,…, got %q", arg)
		}
		origin, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad interval origin %q", parts[0])
		}
		var widths []int
		for _, w := range strings.Split(parts[1], ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil {
				return nil, fmt.Errorf("bad interval width %q", w)
			}
			widths = append(widths, n)
		}
		return incognito.Intervals(origin, widths...), nil
	case "csv":
		// A dimension-table CSV: base value plus one column per level,
		// header naming the levels (the Fig. 6 row format).
		if !o.AllowFiles {
			return nil, fmt.Errorf("file-based hierarchy %q is not allowed here", spec)
		}
		if arg == "" {
			return nil, fmt.Errorf("csv wants a file path")
		}
		return incognito.DimensionCSV(arg), nil
	case "taxonomy":
		if !o.AllowFiles {
			return nil, fmt.Errorf("file-based hierarchy %q is not allowed here", spec)
		}
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		var parents []map[string]string
		if err := json.Unmarshal(data, &parents); err != nil {
			return nil, fmt.Errorf("taxonomy file %s: %w (want a JSON array of child→parent objects)", arg, err)
		}
		return incognito.Taxonomy(parents...), nil
	}
	return nil, fmt.Errorf("unknown hierarchy %q (want suppress, round:N, interval:O:W…, date, csv:FILE, or taxonomy:FILE)", spec)
}

// ParseAlgorithm maps a command-line algorithm name to the API constant.
func ParseAlgorithm(name string) (incognito.Algorithm, error) {
	switch name {
	case "basic":
		return incognito.BasicIncognito, nil
	case "superroots":
		return incognito.SuperRootsIncognito, nil
	case "cube":
		return incognito.CubeIncognito, nil
	case "bottomup":
		return incognito.BottomUp, nil
	case "bottomup-rollup":
		return incognito.BottomUpRollup, nil
	case "binary":
		return incognito.BinarySearch, nil
	}
	return 0, fmt.Errorf("incognito: unknown algorithm %q", name)
}

// ParseCriterion maps a minimality-criterion name to its comparator.
func ParseCriterion(name string) (incognito.Criterion, error) {
	switch name {
	case "height":
		return incognito.MinHeight(), nil
	case "precision":
		return incognito.MaxPrecision(), nil
	case "discernibility":
		return incognito.MinDiscernibility(), nil
	case "avgclass":
		return incognito.MinAvgClassSize(), nil
	}
	return nil, fmt.Errorf("incognito: unknown criterion %q", name)
}
