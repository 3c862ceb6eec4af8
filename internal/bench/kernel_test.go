package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestKernelCellsIdentical runs the end-to-end kernel comparison on a
// small Adults sample and requires the dense kernel to reproduce the
// sparse kernel's results exactly in every cell.
func TestKernelCellsIdentical(t *testing.T) {
	d := small()
	algos := []Algo{BasicIncognito, SuperRootsIncognito, CubeIncognito}
	cells, err := Kernel(context.Background(), Obs{}, d, 4, 2, algos, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(algos) {
		t.Fatalf("got %d cells, want %d", len(cells), len(algos))
	}
	for _, c := range cells {
		if !c.Identical {
			t.Errorf("%s: dense kernel diverged from sparse", c.Algo)
		}
		if c.Solutions <= 0 {
			t.Errorf("%s: no solutions recorded", c.Algo)
		}
	}
}

// TestKernelMicrosAreDenseEligibleAndIdentical checks the microbenchmark
// layout picker lands on a dense-eligible generalization and that both
// kernels agree on the scan, the parallel scan and the rollup, with the
// dense per-tuple hot path allocation-free.
func TestKernelMicrosAreDenseEligibleAndIdentical(t *testing.T) {
	d := small()
	micros, err := KernelMicros(d, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(micros) != 3 {
		t.Fatalf("got %d micro rows, want 3 (scan, parallel_scan, rollup)", len(micros))
	}
	if micros[1].Op != "parallel_scan" || micros[1].Groups != micros[0].Groups {
		t.Errorf("parallel scan row %+v does not match the sequential scan row %+v", micros[1], micros[0])
	}
	for _, m := range micros {
		if !m.DenseEligible {
			t.Errorf("%s: layout %v (%d cells) is not dense-eligible", m.Op, m.Levels, m.Cells)
		}
		if !m.Identical {
			t.Errorf("%s: kernels disagree", m.Op)
		}
		if m.Groups <= 0 {
			t.Errorf("%s: no groups", m.Op)
		}
		if m.DenseAddAllocsPerOp != 0 {
			t.Errorf("%s: dense Add allocates %.2f objects/op, want 0", m.Op, m.DenseAddAllocsPerOp)
		}
	}
}

// TestKernelReportRenders smoke-tests both output formats.
func TestKernelReportRenders(t *testing.T) {
	d := small()
	r := NewKernelReport()
	cells, err := Kernel(context.Background(), Obs{}, d, 3, 2, []Algo{BasicIncognito}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Cells = cells
	micros, err := KernelMicros(d, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Micro = micros
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"dense_max_cells\"") {
		t.Fatal("JSON report missing dense_max_cells")
	}
	buf.Reset()
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kernel") {
		t.Fatal("table report missing header")
	}
}
