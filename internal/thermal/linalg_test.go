package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolvesKnownSystem(t *testing.T) {
	// 3x3 system with known solution x = (1, -2, 3).
	m := NewDense(3)
	rows := [][]float64{
		{4, 1, 0},
		{1, 5, 2},
		{0, 2, 6},
	}
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	want := []float64{1, -2, 3}
	b := make([]float64, 3)
	m.MulVec(b, want)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	lu.Solve(x, b)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// TestLUResidualProperty property-checks the factorisation on random
// diagonally dominant systems (the class the thermal stamps produce):
// solving then multiplying back must reproduce the right-hand side.
func TestLUResidualProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%20)
		r := rand.New(rand.NewSource(seed))
		m := NewDense(n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := r.Float64()*2 - 1
					m.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			m.Set(i, i, rowSum+1+r.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*20 - 10
		}
		lu, err := Factor(m)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(x, b)
		back := make([]float64, n)
		m.MulVec(back, x)
		return vecMaxAbsDiff(back, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFactorRejectsSingular(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4) // rank 1
	if _, err := Factor(m); err == nil {
		t.Fatal("Factor accepted a singular matrix")
	}
}

func TestSolveAliasing(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 4)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{2, 8}
	lu.Solve(v, v) // dst aliases b
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("aliased solve got %v, want [1 2]", v)
	}
}

func TestPivotingHandlesZeroDiagonal(t *testing.T) {
	// Requires a row swap to factor.
	m := NewDense(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	lu.Solve(x, []float64{3, 7})
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("got %v, want [7 3]", x)
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	NewDense(3).MulVec(make([]float64, 2), make([]float64, 3))
}

// MulVec computes dst = M · x. dst and x must not alias.
func (m *Dense) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("thermal: MulVec dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		row := m.A[i*m.N : (i+1)*m.N]
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}
