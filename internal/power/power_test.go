package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultTableValid(t *testing.T) {
	if err := Default160nm().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesZeroEntry(t *testing.T) {
	e := Default160nm()
	e.LinkJ = 0
	if err := e.Validate(); err == nil {
		t.Fatal("zero link energy accepted")
	}
}

func TestScaleLinear(t *testing.T) {
	e := Default160nm().Scale(2.5)
	base := Default160nm()
	if math.Abs(e.BufWriteJ-2.5*base.BufWriteJ) > 1e-24 ||
		math.Abs(e.PEOpJ-2.5*base.PEOpJ) > 1e-24 ||
		math.Abs(e.ConvJ-2.5*base.ConvJ) > 1e-24 {
		t.Fatal("Scale did not scale all entries")
	}
}

// TestPowerEqualsEnergyOverWindow: P·window == E for every block.
func TestPowerEqualsEnergyOverWindow(t *testing.T) {
	e := Default160nm()
	a := NewActivity(4)
	a.BufWrites[0] = 100
	a.BufReads[0] = 90
	a.Xbar[1] = 50
	a.Link[2] = 75
	a.PEOps[3] = 1000
	const window = 109.3e-6
	pm := a.PowerMap(e, window)
	for i := range pm {
		if math.Abs(pm[i]*window-a.BlockEnergyJ(e, i)) > 1e-18 {
			t.Fatalf("block %d: P*window=%g, E=%g", i, pm[i]*window, a.BlockEnergyJ(e, i))
		}
	}
	if math.Abs(Total(pm)*window-a.TotalEnergyJ(e)) > 1e-15 {
		t.Fatal("total power disagrees with total energy")
	}
}

// TestActivityAddFrom property: energy of a sum is the sum of energies.
func TestActivityAddFrom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := Default160nm()
		a, b := NewActivity(6), NewActivity(6)
		for _, s := range [][]uint64{a.BufWrites, a.Link, a.PEOps, b.BufReads, b.Xbar, b.ConvWords} {
			for i := range s {
				s[i] = uint64(r.Intn(1000))
			}
		}
		sumBefore := a.TotalEnergyJ(e) + b.TotalEnergyJ(e)
		a.AddFrom(b)
		return math.Abs(a.TotalEnergyJ(e)-sumBefore) < 1e-12*math.Max(1e-12, sumBefore)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestActivityResetAndClone(t *testing.T) {
	a := NewActivity(3)
	a.PEOps[1] = 42
	c := a.Clone()
	a.Reset()
	if a.TotalEnergyJ(Default160nm()) != 0 {
		t.Fatal("Reset left energy behind")
	}
	if c.PEOps[1] != 42 {
		t.Fatal("Clone does not preserve counters")
	}
	c.PEOps[1] = 7
	if a.PEOps[1] != 0 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAddFromSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	NewActivity(3).AddFrom(NewActivity(4))
}

func TestPowerMapRejectsBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero window")
		}
	}()
	NewActivity(2).PowerMap(Default160nm(), 0)
}

// TestLeakageMonotonic property: leakage increases with temperature and
// equals P0 at the reference point.
func TestLeakageMonotonic(t *testing.T) {
	l := DefaultLeakage()
	if math.Abs(l.At(l.TRefC)-l.P0W) > 1e-18 {
		t.Fatalf("At(TRef) = %g, want %g", l.At(l.TRefC), l.P0W)
	}
	f := func(t1, t2 float64) bool {
		a, b := math.Mod(math.Abs(t1), 100)+20, math.Mod(math.Abs(t2), 100)+20
		if a > b {
			a, b = b, a
		}
		return l.At(a) <= l.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeakageInto(t *testing.T) {
	l := DefaultLeakage()
	temps := []float64{40, 60, 85}
	out := make([]float64, len(temps))
	l.Into(out, temps)
	for i, temp := range temps {
		if math.Abs(out[i]-l.At(temp)) > 1e-18 {
			t.Fatalf("Into[%d] = %g, want %g", i, out[i], l.At(temp))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	l.Into(make([]float64, 2), temps)
}

// TestPermute property: permuting a power map preserves total power and
// places each value at its destination.
func TestPermute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		m := make([]float64, n)
		for i := range m {
			m[i] = r.Float64()
		}
		dst := r.Perm(n)
		out := Permute(m, dst)
		if math.Abs(Total(out)-Total(m)) > 1e-9 {
			return false
		}
		for i, d := range dst {
			if out[d] != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPermuteSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	Permute([]float64{1, 2}, []int{0})
}

// Validate reports the first non-positive entry.
func (e Energy) Validate() error {
	entries := []struct {
		name string
		v    float64
	}{
		{"BufWriteJ", e.BufWriteJ}, {"BufReadJ", e.BufReadJ}, {"XbarJ", e.XbarJ},
		{"ArbJ", e.ArbJ}, {"LinkJ", e.LinkJ}, {"PEOpJ", e.PEOpJ}, {"ConvJ", e.ConvJ},
	}
	for _, en := range entries {
		if en.v <= 0 {
			return fmt.Errorf("power: energy entry %s must be positive, got %g", en.name, en.v)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (a *Activity) Clone() *Activity {
	c := NewActivity(a.N())
	c.AddFrom(a)
	return c
}

// TotalEnergyJ returns the chip-wide dynamic energy of the window.
func (a *Activity) TotalEnergyJ(e Energy) float64 {
	s := 0.0
	for i := 0; i < a.N(); i++ {
		s += a.BlockEnergyJ(e, i)
	}
	return s
}

// Permute returns the power map re-indexed so that entry dst[i] receives
// m[i] — the power map seen by the chip after the workload at block i
// migrates to block dst[i].
func Permute(m []float64, dst []int) []float64 {
	out := make([]float64, len(m))
	PermuteInto(out, m, dst)
	return out
}

// AddFrom accumulates another activity record (e.g. migration traffic on
// top of workload traffic). The two records must cover the same blocks.
func (a *Activity) AddFrom(b *Activity) {
	if a.N() != b.N() {
		panic(fmt.Sprintf("power: adding activity over %d blocks to %d", b.N(), a.N()))
	}
	for k, s := range a.slices() {
		for i, v := range b.slices()[k] {
			s[i] += v
		}
	}
}
