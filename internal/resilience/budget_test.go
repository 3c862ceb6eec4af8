package resilience

import (
	"errors"
	"fmt"
	"testing"
)

func TestAccountantLadder(t *testing.T) {
	a := NewAccountant(1000)

	// Under budget: everything allowed, nothing counted.
	a.Grant(600)
	if !a.DenseAllowed() || a.Over() || a.Exhausted() {
		t.Fatalf("under budget: unexpectedly restricted (used=%d)", a.Used())
	}
	if a.DenseFallbacks() != 0 {
		t.Fatal("under budget: degradation counter moved")
	}

	// Over the soft budget: dense denied and counted, but not exhausted.
	a.Grant(600)
	if a.DenseAllowed() {
		t.Error("over soft budget: dense still allowed")
	}
	if a.Exhausted() {
		t.Error("over soft budget: already exhausted")
	}
	if a.DenseFallbacks() != 1 {
		t.Errorf("dense fallbacks = %d, want 1", a.DenseFallbacks())
	}

	// Releasing below the budget restores full service.
	a.Release(600)
	if !a.DenseAllowed() {
		t.Error("released below budget: still restricted")
	}

	// Past the hard stop (2x budget): exhausted.
	a.Grant(1500)
	if !a.Exhausted() {
		t.Errorf("used=%d budget=%d: not exhausted past the hard stop", a.Used(), a.Budget())
	}
	if a.Aborted() {
		t.Error("Aborted before NoteAbort")
	}
	a.NoteAbort()
	if !a.Aborted() {
		t.Error("Aborted not recorded")
	}
}

func TestAccountantNil(t *testing.T) {
	var a *Accountant
	if NewAccountant(0) != nil || NewAccountant(-5) != nil {
		t.Error("non-positive budgets must yield the nil accountant")
	}
	a.Grant(1 << 40)
	a.Release(1)
	a.NoteAbort()
	if !a.DenseAllowed() || a.Over() || a.Exhausted() || a.Aborted() {
		t.Error("nil accountant restricted something")
	}
	if a.Used() != 0 || a.Budget() != 0 || a.DenseFallbacks() != 0 {
		t.Error("nil accountant accessors not zero")
	}
}

func TestErrDegradedIs(t *testing.T) {
	wrapped := fmt.Errorf("core: %w (estimated 10 live bytes)", ErrDegraded)
	if !errors.Is(wrapped, ErrDegraded) {
		t.Error("wrapped ErrDegraded not detected by errors.Is")
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{" 512 ", 512, false},
		{"4Ki", 4096, false},
		{"4ki", 4096, false},
		{"64Mi", 64 << 20, false},
		{"64MiB", 64 << 20, false},
		{"1Gi", 1 << 30, false},
		{"2GiB", 2 << 30, false},
		{"-1", 0, true},
		{"64Q", 0, true},
		{"Mi", 0, true},
		{"12.5Mi", 0, true},
		{"9999999999Gi", 0, true},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseByteSize(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseByteSize(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
