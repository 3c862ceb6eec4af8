package resilience

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: Fingerprint{
			Algorithm:   "Basic Incognito",
			Heights:     []int{1, 1, 2},
			K:           2,
			MaxSuppress: 1,
			Rows:        6,
			TableHash:   0xdeadbeef,
		},
		Boundary: "iteration",
		Iter:     2,
		History: [][]NodeKey{
			{{Dims: []int{0}, Levels: []int{1}}, {Dims: []int{2}, Levels: []int{2}}},
			{{Dims: []int{0, 2}, Levels: []int{1, 2}}},
		},
		Stats: map[string]int64{"nodes_checked": 7, "rollups": 3},
		Families: []FamilyState{{
			Dims:   []int{0, 1},
			Failed: []NodeKey{{Dims: []int{0, 1}, Levels: []int{0, 0}}},
			Stats:  map[string]int64{"nodes_checked": 4},
		}},
		Frontier: &Frontier{
			Dims: []int{0, 2},
			Processed: []NodeOutcome{
				{Key: NodeKey{Dims: []int{0, 2}, Levels: []int{0, 0}}, Outcome: OutcomeFailed},
				{Key: NodeKey{Dims: []int{0, 2}, Levels: []int{1, 0}}, Outcome: OutcomePassed},
				{Key: NodeKey{Dims: []int{0, 2}, Levels: []int{1, 1}}, Outcome: OutcomeMarked},
			},
			Stats: map[string]int64{"nodes_checked": 2, "table_scans": 1},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := NewCheckpointer(path)
	want := sampleSnapshot()
	if err := c.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if c.Saves() != 1 {
		t.Errorf("Saves = %d, want 1", c.Saves())
	}
	if c.LastSize() <= 0 {
		t.Errorf("LastSize = %d, want > 0", c.LastSize())
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointSaveReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := NewCheckpointer(path)
	first := sampleSnapshot()
	if err := c.Save(first); err != nil {
		t.Fatalf("Save: %v", err)
	}
	second := sampleSnapshot()
	second.Iter = 3
	if err := c.Save(second); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Iter != 3 {
		t.Errorf("loaded Iter = %d, want the second save's 3", got.Iter)
	}
	if got.Seq != 2 {
		t.Errorf("loaded Seq = %d, want 2", got.Seq)
	}
	// The atomic-replace temp files must not accumulate.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Errorf("stale temp file %s left behind", e.Name())
		}
	}
}

func TestCheckpointAfterSaveHook(t *testing.T) {
	c := NewCheckpointer(filepath.Join(t.TempDir(), "run.ckpt"))
	var seen []int64
	c.AfterSave = func(s *Snapshot) { seen = append(seen, s.Seq) }
	for i := 0; i < 3; i++ {
		if err := c.Save(sampleSnapshot()); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if !reflect.DeepEqual(seen, []int64{1, 2, 3}) {
		t.Errorf("AfterSave saw seqs %v, want [1 2 3]", seen)
	}
}

func TestCheckpointClear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := NewCheckpointer(path)
	if err := c.Save(sampleSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := c.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot file still exists after Clear (stat err: %v)", err)
	}
	// Clearing an already-cleared checkpointer is not an error.
	if err := c.Clear(); err != nil {
		t.Errorf("second Clear: %v", err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	c := NewCheckpointer(path)
	if err := c.Save(sampleSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flipped payload byte", func(t *testing.T) {
		var env struct {
			Version  int             `json:"version"`
			Checksum string          `json:"checksum"`
			Payload  json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		// Flip a digit inside the payload so the JSON stays well formed but
		// the checksum no longer matches.
		mutated := strings.Replace(string(env.Payload), `"iter":2`, `"iter":3`, 1)
		if mutated == string(env.Payload) {
			t.Fatal("test setup: payload mutation did not apply")
		}
		env.Payload = json.RawMessage(mutated)
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(bad, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("Load of tampered payload: err = %v, want checksum failure", err)
		}
	})

	t.Run("wrong version", func(t *testing.T) {
		mutated := strings.Replace(string(raw), fmt.Sprintf(`"version":%d`, SnapshotVersion), `"version":99`, 1)
		if mutated == string(raw) {
			t.Fatal("test setup: version mutation did not apply")
		}
		bad := filepath.Join(dir, "vers.ckpt")
		if err := os.WriteFile(bad, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("Load of future version: err = %v, want version error", err)
		}
	})

	t.Run("truncated file", func(t *testing.T) {
		bad := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Error("Load of truncated file succeeded, want error")
		}
	})

	t.Run("missing file", func(t *testing.T) {
		if _, err := Load(filepath.Join(dir, "nope.ckpt")); err == nil {
			t.Error("Load of missing file succeeded, want error")
		}
	})
}

// TestLoadRefusesPreviousVersion: a well-formed, correctly checksummed
// envelope from the previous format version is refused, and the error
// names both versions so an operator sees why a checkpoint was dropped.
func TestLoadRefusesPreviousVersion(t *testing.T) {
	payload, err := json.Marshal(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	old := SnapshotVersion - 1
	raw, err := json.Marshal(envelope{Version: old, Checksum: checksum(payload), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatalf("Load accepted a version %d checkpoint", old)
	}
	for _, want := range []string{fmt.Sprintf("format version %d", old), fmt.Sprintf("reads %d", SnapshotVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Load error %q does not name %q", err, want)
		}
	}
}

func TestFingerprintEqual(t *testing.T) {
	base := sampleSnapshot().Fingerprint
	if !base.Equal(base) {
		t.Error("fingerprint not equal to itself")
	}
	for name, mutate := range map[string]func(*Fingerprint){
		"algorithm":   func(f *Fingerprint) { f.Algorithm = "Cube Incognito" },
		"heights":     func(f *Fingerprint) { f.Heights = []int{1, 1, 3} },
		"height rank": func(f *Fingerprint) { f.Heights = []int{1, 1} },
		"k":           func(f *Fingerprint) { f.K = 3 },
		"suppress":    func(f *Fingerprint) { f.MaxSuppress = 0 },
		"rows":        func(f *Fingerprint) { f.Rows = 7 },
		"table hash":  func(f *Fingerprint) { f.TableHash = 1 },
	} {
		other := base
		other.Heights = append([]int(nil), base.Heights...)
		mutate(&other)
		if base.Equal(other) {
			t.Errorf("fingerprints differing in %s compare equal", name)
		}
	}
}

func TestNilCheckpointer(t *testing.T) {
	var c *Checkpointer
	if c := NewCheckpointer(""); c != nil {
		t.Error("NewCheckpointer(\"\") != nil")
	}
	if err := c.Save(sampleSnapshot()); err != nil {
		t.Errorf("nil Save: %v", err)
	}
	if err := c.Clear(); err != nil {
		t.Errorf("nil Clear: %v", err)
	}
	if c.Path() != "" || c.Saves() != 0 || c.LastSize() != 0 {
		t.Error("nil checkpointer accessors not zero")
	}
}

// TestFingerprintKey pins the stable string form the service's result
// cache keys on: injective over the fingerprint fields (Equal ⇔ same Key)
// and stable across processes — changing it would orphan cached results.
func TestFingerprintKey(t *testing.T) {
	base := sampleSnapshot().Fingerprint
	want := "Basic Incognito|k=2|s=1|rows=6|table=00000000deadbeef|heights=1,1,2"
	if got := base.Key(); got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	for name, mutate := range map[string]func(*Fingerprint){
		"algorithm":  func(f *Fingerprint) { f.Algorithm = "Cube Incognito" },
		"heights":    func(f *Fingerprint) { f.Heights = []int{1, 1, 3} },
		"k":          func(f *Fingerprint) { f.K = 3 },
		"suppress":   func(f *Fingerprint) { f.MaxSuppress = 0 },
		"rows":       func(f *Fingerprint) { f.Rows = 7 },
		"table hash": func(f *Fingerprint) { f.TableHash = 1 },
	} {
		other := base
		other.Heights = append([]int(nil), base.Heights...)
		mutate(&other)
		if other.Key() == base.Key() {
			t.Errorf("fingerprints differing in %s share a key", name)
		}
	}
}
