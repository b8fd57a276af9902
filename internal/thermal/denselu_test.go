package thermal

import (
	"fmt"
	"math"
)

// The dense pivoted LU is the differential oracle for the bordered-banded
// LU the solvers use: the banded-vs-dense tests and the dense benchmarks
// (BenchmarkFactor, BenchmarkSteadySolveDense) compare against it.

// LU holds an LU factorisation with partial pivoting (Doolittle form, L
// unit-diagonal, stored in place). The scratch vector makes Solve
// allocation-free, so an LU must not be shared between goroutines.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
	x    []float64
}

// Factor computes the LU factorisation of m. It returns an error if the
// matrix is singular to working precision, which for a thermal network
// indicates a node with no path to ambient.
func Factor(m *Dense) (*LU, error) {
	n := m.N
	f := &LU{n: n, lu: append([]float64(nil), m.A...), piv: make([]int, n), sign: 1,
		x: make([]float64, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude in this column.
		p, max := col, math.Abs(f.lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(f.lu[r*n+col]); a > max {
				p, max = r, a
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("thermal: singular system (pivot column %d); some node has no path to ambient", col)
		}
		if p != col {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[col*n+j] = f.lu[col*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[col] = f.piv[col], f.piv[p]
			f.sign = -f.sign
		}
		pivVal := f.lu[col*n+col]
		for r := col + 1; r < n; r++ {
			l := f.lu[r*n+col] / pivVal
			f.lu[r*n+col] = l
			if l == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				f.lu[r*n+j] -= l * f.lu[col*n+j]
			}
		}
	}
	return f, nil
}

// Solve solves M·x = b into dst. dst and b may alias.
func (f *LU) Solve(dst, b []float64) {
	if len(dst) != f.n || len(b) != f.n {
		panic("thermal: Solve dimension mismatch")
	}
	n := f.n
	// Apply the pivot permutation.
	x := f.x
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, l := range row {
			s -= l * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	copy(dst, x)
}
