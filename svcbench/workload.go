package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"incognito/internal/dataset"
)

// workload is one traffic mix: a dataset shape, a client count and the
// kind of submission each client sends.
type workload struct {
	name    string
	data    string // "adults" or "landsend"
	rows    int
	qi      int // the first qi quasi-identifier attributes of the dataset
	clients int
	// durable runs the daemon with journal and checkpoint directories.
	durable bool
	// repeats makes every other submission, in seeded order, resend one of
	// the client's last recentWindow completed datasets; the others carry
	// a dataset the client has not sent before. Without it every
	// submission is fresh.
	repeats bool
	// delta makes the one client chain POST /v1/jobs/{id}/delta jobs off a
	// retain-state parent submitted during set-up.
	delta bool
	// bases is how many generated tables each client holds; fresh datasets
	// are row rotations of them, so making one costs a copy, not a run of
	// the generator inside the timed phase.
	bases int
	// samples is how many of the workload's own jobs the output check and
	// the traced replay re-run through the library.
	samples int
}

const (
	k            = 10
	recentWindow = 16
	pollEvery    = 5 // ms between status polls
)

var workloads = []workload{
	{name: "adults-mixed", data: "adults", rows: dataset.AdultsDefaultRows, qi: 5, clients: 2,
		durable: true, repeats: true, bases: 4, samples: 2},
	{name: "landsend-search", data: "landsend", rows: 200000, qi: 8, clients: 1,
		bases: 12, samples: 1},
	{name: "adults-delta", data: "adults", rows: dataset.AdultsDefaultRows, qi: 5, clients: 1,
		delta: true, bases: 1, samples: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives an independent generator seed from the run seed and a
// path of labels (splitmix64 over the parts), so every random choice of the
// benchmark is a function of -seed alone.
func subSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x >> 1)
}

func generate(data string, rows int, seed int64) *dataset.Dataset {
	if data == "landsend" {
		return dataset.LandsEnd(rows, seed)
	}
	return dataset.Adults(rows, seed)
}

// writeQISpec writes the dimension table of each of the first n QI
// attributes into dir and returns the csv: QI spec naming them. The
// hierarchies depend on neither the seed nor the row count.
func writeQISpec(data string, n int, dir string) (spec string, cols []string, err error) {
	d := generate(data, 0, 1)
	parts := make([]string, n)
	for i := 0; i < n; i++ {
		col := d.Table.Columns()[d.QICols[i]]
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", data, i))
		if err := d.Hierarchies[i].DimensionTable().WriteCSVFile(path); err != nil {
			return "", nil, err
		}
		parts[i] = col + "=csv:" + path
		cols = append(cols, col)
	}
	return strings.Join(parts, ";"), cols, nil
}

// base is one generated table held as CSV lines, ready to be spliced into
// request bodies.
type base struct {
	header string   // CSV header line, with its newline
	lines  []string // CSV data lines, with their newlines
	// escHeader and esc are the same text JSON-string-escaped; starts[i]
	// is where line i begins in esc.
	escHeader string
	esc       string
	starts    []int
}

func newBase(data string, rows int, seed int64) (*base, error) {
	t := generate(data, rows, seed).Table
	b := &base{}
	var err error
	if b.header, err = csvLine(t.Columns()); err != nil {
		return nil, err
	}
	b.lines = make([]string, t.NumRows())
	for i := range b.lines {
		if b.lines[i], err = csvLine(t.Row(i)); err != nil {
			return nil, err
		}
	}
	b.escHeader = jsonEscape(b.header)
	var esc strings.Builder
	b.starts = make([]int, len(b.lines))
	for i, l := range b.lines {
		b.starts[i] = esc.Len()
		esc.WriteString(jsonEscape(l))
	}
	b.esc = esc.String()
	return b, nil
}

func csvLine(rec []string) (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(rec); err != nil {
		return "", err
	}
	w.Flush()
	return buf.String(), w.Error()
}

// jsonEscape is s as the inside of a JSON string literal.
func jsonEscape(s string) string {
	b, _ := json.Marshal(s) // marshaling a string cannot fail
	return string(b[1 : len(b)-1])
}

// datasetRef names one submission's table: base b of the client with its rows
// rotated to start at row rot. Different rotations are different bytes, so
// the daemon sees a new dataset while the search does the base's work.
type datasetRef struct {
	client, base, rot int
}

func (d datasetRef) String() string { return fmt.Sprintf("c%d/b%d/r%d", d.client, d.base, d.rot) }

// csvText renders the dataset as plain CSV.
func (b *base) csvText(rot int) string {
	var s strings.Builder
	s.WriteString(b.header)
	for _, l := range b.lines[rot:] {
		s.WriteString(l)
	}
	for _, l := range b.lines[:rot] {
		s.WriteString(l)
	}
	return s.String()
}

// submitBody is the POST /v1/jobs body for the rotated dataset, spliced
// from the pre-escaped text so building it is two copies.
func (b *base) submitBody(rot int, qiJSON, policyJSON string) []byte {
	cut := len(b.esc)
	if rot < len(b.starts) {
		cut = b.starts[rot]
	}
	var buf bytes.Buffer
	buf.Grow(len(b.esc) + len(b.escHeader) + len(qiJSON) + len(policyJSON) + 32)
	buf.WriteString(`{"csv":"`)
	buf.WriteString(b.escHeader)
	buf.WriteString(b.esc[cut:])
	buf.WriteString(b.esc[:cut])
	buf.WriteString(`","qi":`)
	buf.WriteString(qiJSON)
	buf.WriteString(`,"policy":`)
	buf.WriteString(policyJSON)
	buf.WriteString(`}`)
	return buf.Bytes()
}

// schedule is one client's deterministic submission sequence. Fresh
// datasets cycle through the client's bases at seeded rotations. With
// repeats, each pair of submissions holds one fresh dataset and one
// resend, in seeded order, and the resend's age among the last
// recentWindow completed datasets follows a seeded permutation, so every
// run sends the same share of each kind and the cache sees the same
// reuse distances.
type schedule struct {
	client, bases, rows int
	repeats             bool
	rng                 *rand.Rand
	nFresh              int
	used                map[datasetRef]bool
	recent              []datasetRef
	pair                []bool // fresh flags of the current pair, consumed in order
	ages                []int
}

func newSchedule(seed int64, client, bases, rows int, repeats bool) *schedule {
	return &schedule{
		client: client, bases: bases, rows: rows, repeats: repeats,
		rng:  rand.New(rand.NewSource(subSeed(seed, 2, int64(client)))),
		used: make(map[datasetRef]bool),
	}
}

// next returns the dataset of the next submission and whether it is fresh.
func (s *schedule) next() (datasetRef, bool) {
	if s.repeats {
		if len(s.pair) == 0 {
			first := s.rng.Intn(2) == 0
			s.pair = []bool{first, !first}
		}
		fresh := s.pair[0]
		s.pair = s.pair[1:]
		if !fresh && len(s.recent) > 0 {
			if len(s.ages) == 0 {
				s.ages = s.rng.Perm(recentWindow)
			}
			age := s.ages[0] % len(s.recent)
			s.ages = s.ages[1:]
			return s.recent[len(s.recent)-1-age], false
		}
	}
	for {
		d := datasetRef{client: s.client, base: s.nFresh % s.bases, rot: s.rng.Intn(s.rows)}
		if !s.used[d] {
			s.used[d] = true
			s.nFresh++
			return d, true
		}
	}
}

// completed records that the client got a result for d.
func (s *schedule) completed(d datasetRef) {
	for i, r := range s.recent {
		if r == d {
			s.recent = append(s.recent[:i], s.recent[i+1:]...)
			break
		}
	}
	s.recent = append(s.recent, d)
	if len(s.recent) > recentWindow {
		s.recent = s.recent[1:]
	}
}

// edit is one delta request: CSV lines to append and to delete.
type edit struct {
	add, del []string
}

// nextEdit draws a ~1% edit of the table held as lines: 0.5% of the rows
// (distinct positions) are duplicated and 0.5% (distinct positions) are
// deleted. lines is updated to the edited table; its order may differ
// from the daemon's, but the multiset of rows — all later edits draw
// from — is the same.
func nextEdit(rng *rand.Rand, lines *[]string) edit {
	cur := *lines
	n := len(cur) / 200
	if n < 1 {
		n = 1
	}
	var e edit
	for _, i := range rng.Perm(len(cur))[:n] {
		e.add = append(e.add, cur[i])
	}
	drop := make(map[int]bool, n)
	for _, i := range rng.Perm(len(cur))[:n] {
		drop[i] = true
		e.del = append(e.del, cur[i])
	}
	out := make([]string, 0, len(cur))
	for i, l := range cur {
		if !drop[i] {
			out = append(out, l)
		}
	}
	*lines = append(out, e.add...)
	return e
}

// deltaBody is the POST /v1/jobs/{id}/delta body for e.
func deltaBody(header string, e edit) ([]byte, error) {
	text := func(lines []string) string {
		return header + strings.Join(lines, "")
	}
	return json.Marshal(map[string]string{"add_csv": text(e.add), "del_csv": text(e.del)})
}

// records parses CSV lines back into rows.
func records(lines []string) ([][]string, error) {
	return csv.NewReader(strings.NewReader(strings.Join(lines, ""))).ReadAll()
}

// runDir makes the run's private scratch directory under parent.
func runDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}
