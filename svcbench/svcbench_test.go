package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"incognito/internal/service"
)

func TestSameSeedSameInputs(t *testing.T) {
	const rows = 500
	inputsOf := func(seed int64) (bodies [][]byte, picks []datasetRef, edits []edit) {
		b, err := newBase("adults", rows, subSeed(seed, 1, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		s := newSchedule(seed, 0, 1, rows, true)
		for i := 0; i < 40; i++ {
			d, _ := s.next()
			s.completed(d)
			picks = append(picks, d)
			bodies = append(bodies, b.submitBody(d.rot, `"Age=suppress"`, policyCold))
		}
		lines := append([]string(nil), b.lines...)
		rng := rand.New(rand.NewSource(subSeed(seed, 3)))
		for i := 0; i < 5; i++ {
			edits = append(edits, nextEdit(rng, &lines))
		}
		return bodies, picks, edits
	}
	b1, p1, e1 := inputsOf(7)
	b2, p2, e2 := inputsOf(7)
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("the same seed gave different datasets, schedule or edits")
	}
	b3, p3, e3 := inputsOf(8)
	if reflect.DeepEqual(b1, b3) || reflect.DeepEqual(p1, p3) || reflect.DeepEqual(e1, e3) {
		t.Fatal("a different seed gave the same inputs")
	}
}

func TestScheduleMix(t *testing.T) {
	s := newSchedule(3, 0, 4, 1000, true)
	fresh := 0
	seen := make(map[datasetRef]bool)
	for i := 0; i < 200; i++ {
		d, isFresh := s.next()
		if isFresh == seen[d] {
			t.Fatalf("submission %d: fresh=%v but seen before=%v", i, isFresh, seen[d])
		}
		if isFresh {
			fresh++
		} else {
			found := false
			for _, r := range s.recent {
				found = found || r == d
			}
			if !found {
				t.Fatalf("submission %d resends %s, not one of the last %d completed", i, d, recentWindow)
			}
		}
		seen[d] = true
		s.completed(d)
	}
	if fresh != 100 {
		t.Fatalf("%d of 200 submissions fresh, want exactly half", fresh)
	}
}

func TestSubmitBodyIsTheRotatedDataset(t *testing.T) {
	b, err := newBase("adults", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	var req struct {
		CSV string `json:"csv"`
		QI  string `json:"qi"`
	}
	if err := json.Unmarshal(b.submitBody(17, `"Age=suppress"`, policyCold), &req); err != nil {
		t.Fatal(err)
	}
	if req.CSV != b.csvText(17) || req.QI != "Age=suppress" {
		t.Fatalf("body does not carry the rotated dataset")
	}
	if !strings.HasPrefix(req.CSV, b.header+b.lines[17]) {
		t.Fatal("rotation does not start at the chosen row")
	}
}

func TestEditKeepsRowCount(t *testing.T) {
	b, err := newBase("adults", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines := append([]string(nil), b.lines...)
	e := nextEdit(rand.New(rand.NewSource(1)), &lines)
	if len(e.add) != 5 || len(e.del) != 5 || len(lines) != 1000 {
		t.Fatalf("edit adds %d and deletes %d rows, table has %d; want 5, 5, 1000", len(e.add), len(e.del), len(lines))
	}
	table, err := foldEdits(b.csvText(0), []edit{e})
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != 1000 {
		t.Fatalf("library edit leaves %d rows, want 1000", table.NumRows())
	}
}

func TestCheckRelease(t *testing.T) {
	qi := []string{"Age", "Zip"}
	anon := "Age,Zip,Disease\n2*,130**,flu\n2*,130**,cold\n3*,148**,flu\n3*,148**,flu\n"
	if err := checkRelease(anon, qi, 2, 0, 4); err != nil {
		t.Fatalf("2-anonymous release rejected: %v", err)
	}
	cases := map[string]struct {
		csv        string
		k, sup, in int
	}{
		"class below k":        {"Age,Zip,Disease\n2*,130**,flu\n2*,130**,cold\n3*,148**,flu\n", 2, 0, 3},
		"too many suppressed":  {anon, 2, 1, 6},
		"more rows than input": {anon, 2, 0, 3},
		"missing QI column":    {"Age,Disease\n2*,flu\n2*,cold\n", 2, 0, 2},
		"not k across QI set":  {"Age,Zip,Disease\n2*,130**,flu\n2*,131**,cold\n", 2, 0, 2},
	}
	for name, c := range cases {
		if err := checkRelease(c.csv, qi, c.k, c.sup, c.in); err == nil {
			t.Errorf("%s: crafted release accepted", name)
		}
	}
	// Quoted fields take the encoding/csv path and group the same way.
	quoted := "Age,Zip,Disease\n\"2*\",130**,\"flu, mild\"\n2*,130**,cold\n"
	if err := checkRelease(quoted, qi, 2, 0, 2); err != nil {
		t.Errorf("quoted 2-anonymous release rejected: %v", err)
	}
	if err := checkRelease(quoted, qi, 3, 0, 2); err == nil {
		t.Error("quoted release below k accepted")
	}
	// Suppressed rows within the threshold are allowed.
	if err := checkRelease(anon, qi, 2, 2, 6); err != nil {
		t.Errorf("release with 2 of 2 allowed suppressions rejected: %v", err)
	}
}

func TestTailQuantile(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, ok := tailQuantile(xs(99), 0.9); ok {
		t.Error("p90 reported from 99 samples: fewer than 10 lie beyond it")
	}
	if v, ok := tailQuantile(xs(100), 0.9); !ok || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.1, true", v, ok)
	}
	if _, ok := tailQuantile(xs(999), 0.99); ok {
		t.Error("p99 reported from 999 samples")
	}
	if _, ok := tailQuantile(xs(1000), 0.99); !ok {
		t.Error("p99 not reported from 1000 samples")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}

func TestSamePayloadIgnoresDeltaBlock(t *testing.T) {
	cold := []byte(`{"solutions":[],"complete":true,"best":{"levels":null,"names":null,"height":0,"precision":0},"released_csv":"a\n","stats":{"nodes_checked":1,"nodes_marked":0,"candidates":0,"table_scans":0,"rollups":0}}`)
	delta := bytes.Replace(cold, []byte(`}}`), []byte(`},"delta":{"parent":"job-1","rows_rescanned":3,"nodes_screened":0,"nodes_revalidated":0}}`), 1)
	if err := samePayload(delta, cold); err != nil {
		t.Fatalf("delta payload with the cold result: %v", err)
	}
	if err := samePayload(bytes.Replace(delta, []byte(`a\n`), []byte(`b\n`), 1), cold); err == nil {
		t.Fatal("different release accepted")
	}
}

func TestReleasedCSVMatchesJSON(t *testing.T) {
	// The last text has a tab, an escape the fast path leaves to
	// encoding/json.
	for _, text := range []string{"a,b\n1,2\n", "x\n\"q,\"\"r\"\n", "<tag> & \u00e9\n", "a\tb\n"} {
		p := service.ResultPayload{ReleasedCSV: text, Stats: service.StatsPayload{NodesChecked: 7}}
		payload, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := releasedCSV(payload)
		if err != nil || got != text {
			t.Errorf("releasedCSV(%q) = %q, %v", text, got, err)
		}
		var d decoded
		if err := d.decode(payload); err != nil || d.Stats.NodesChecked != 7 || d.Delta != nil {
			t.Errorf("decode: %+v, %v", d, err)
		}
	}
}

func BenchmarkCheckRelease(b *testing.B) {
	base, err := newBase("adults", 45222, 1)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(map[string]string{"released_csv": base.csvText(0)})
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"Age", "Gender", "Race", "Marital Status", "Education"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		released, err := releasedCSV(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := checkRelease(released, cols, 1, 0, 45222); err != nil {
			b.Fatal(err)
		}
	}
}
