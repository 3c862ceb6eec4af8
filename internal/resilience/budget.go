package resilience

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// ErrDegraded marks a run that hit the hard stop of the memory-degradation
// ladder: rather than OOM, the search aborted and returned the best-so-far
// partial solution set. Test with errors.Is.
var ErrDegraded = errors.New("resilience: memory budget exhausted, returning best-so-far partial result")

// hardFactor scales the soft budget to the hard stop: between budget and
// hardFactor×budget the run degrades (sparse kernels); past the hard stop it
// aborts with ErrDegraded.
const hardFactor = 2

// Accountant tracks an estimate of the live frequency-set bytes of a run
// against a soft budget. It deliberately does not try to be exact — it
// counts the long-lived allocations (cube sets, the failure-frontier sets
// retained for rollup) whose growth is what actually OOMs large runs — and
// drives the degradation ladder:
//
//  1. used > budget: new frequency sets fall back from the dense array
//     kernel to the sparse map (DenseAllowed);
//  2. used > hardFactor×budget: the run aborts at the next phase boundary
//     with ErrDegraded (Exhausted), returning whatever solutions were
//     already proven.
//
// A nil *Accountant is the canonical disabled accountant: every method is
// nil-safe, grants everything, and never degrades.
type Accountant struct {
	budget int64
	used   atomic.Int64

	denseFallbacks atomic.Int64
	aborted        atomic.Bool
}

// NewAccountant returns an accountant enforcing the given soft budget in
// bytes. Non-positive budgets yield nil — the disabled accountant.
func NewAccountant(budgetBytes int64) *Accountant {
	if budgetBytes <= 0 {
		return nil
	}
	return &Accountant{budget: budgetBytes}
}

// Grant records n estimated live bytes.
func (a *Accountant) Grant(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.used.Add(n)
}

// Release returns n previously granted bytes.
func (a *Accountant) Release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.used.Add(-n)
}

// Used returns the current live-byte estimate (0 when disabled).
func (a *Accountant) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// Budget returns the soft budget in bytes (0 when disabled).
func (a *Accountant) Budget() int64 {
	if a == nil {
		return 0
	}
	return a.budget
}

// Over reports whether the estimate exceeds the soft budget.
func (a *Accountant) Over() bool {
	return a != nil && a.used.Load() > a.budget
}

// DenseAllowed reports whether a new frequency set may take the dense
// representation; false — one dense→sparse fallback event — once the soft
// budget is exceeded.
func (a *Accountant) DenseAllowed() bool {
	if a == nil || a.used.Load() <= a.budget {
		return true
	}
	a.denseFallbacks.Add(1)
	return false
}

// Exhausted reports whether the estimate passed the hard stop
// (hardFactor×budget); the run must abort with ErrDegraded at the next
// boundary.
func (a *Accountant) Exhausted() bool {
	return a != nil && a.used.Load() > hardFactor*a.budget
}

// NoteAbort records that the run aborted with ErrDegraded.
func (a *Accountant) NoteAbort() {
	if a != nil {
		a.aborted.Store(true)
	}
}

// DenseFallbacks returns how many dense→sparse fallback decisions the
// budget forced.
func (a *Accountant) DenseFallbacks() int64 {
	if a == nil {
		return 0
	}
	return a.denseFallbacks.Load()
}

// Aborted reports whether the run hit the hard stop.
func (a *Accountant) Aborted() bool {
	return a != nil && a.aborted.Load()
}

// ParseByteSize parses a human-friendly byte count for budget flags: a
// plain integer is bytes, and the binary suffixes Ki, Mi, Gi (case
// insensitive, optionally followed by B) scale by powers of 1024 — "64Mi",
// "64MiB", and "67108864" are all the same budget. The empty string and
// "0" mean disabled.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	shift := 0
	upper := strings.ToUpper(t)
	upper = strings.TrimSuffix(upper, "B")
	switch {
	case strings.HasSuffix(upper, "KI"):
		shift, upper = 10, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "MI"):
		shift, upper = 20, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "GI"):
		shift, upper = 30, upper[:len(upper)-2]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("resilience: bad byte size %q (want an integer with an optional Ki/Mi/Gi suffix)", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("resilience: byte size %q overflows", s)
	}
	return n << shift, nil
}
