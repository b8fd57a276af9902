package ldpc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stableLowest is the check selection of the original construction, kept
// as the oracle for lowestDegree: stably sort the random order by degree
// and take the first w.
func stableLowest(order, deg []int, w int) []int {
	o := slices.Clone(order)
	sort.SliceStable(o, func(i, j int) bool { return deg[o[i]] < deg[o[j]] })
	return o[:w]
}

// TestLowestDegreeMatchesStableSort: over random degree vectors with
// many ties, the one-pass selection picks exactly the checks, in exactly
// the order, of the stable sort it replaced.
func TestLowestDegreeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		m := 1 + rng.Intn(40)
		w := 1 + rng.Intn(min(m, 6))
		deg := make([]int, m)
		spread := 1 + rng.Intn(4)
		for i := range deg {
			deg[i] = rng.Intn(spread)
		}
		order := rng.Perm(m)
		want := stableLowest(order, deg, w)
		if got := lowestDegree(make([]int, w), order, deg); !slices.Equal(got, want) {
			t.Fatalf("trial %d: deg %v order %v w %d: got %v, want %v", trial, deg, order, w, got, want)
		}
	}
}

// TestNewRegularMatchesSortedConstruction: whole codes built with the
// one-pass selection equal those the stable-sort construction builds from
// the same seed, retries included, so every code (and every result
// downstream of it) is unchanged.
func TestNewRegularMatchesSortedConstruction(t *testing.T) {
	sorted := func(n, m, w int, seed int64) *Code {
		rng := rand.New(rand.NewSource(seed))
		for attempt := 0; attempt < 32; attempt++ {
			c := &Code{N: n, M: m, CheckNbrs: make([][]int, m), VarNbrs: make([][]int, n)}
			deg := make([]int, m)
			for v := 0; v < n; v++ {
				for _, ch := range stableLowest(rng.Perm(m), deg, w) {
					c.CheckNbrs[ch] = append(c.CheckNbrs[ch], v)
					c.VarNbrs[v] = append(c.VarNbrs[v], ch)
					deg[ch]++
				}
			}
			if c.deriveEncoder() == nil {
				return c
			}
		}
		t.Fatalf("no code for n=%d m=%d w=%d seed %d", n, m, w, seed)
		return nil
	}
	cases := []struct {
		n, m, w int
		seed    int64
	}{
		{24, 12, 3, 1}, {96, 48, 3, 2}, {120, 60, 5, 3}, {250, 125, 3, 1003}, {640, 320, 3, 1001},
	}
	for _, tc := range cases {
		want := sorted(tc.n, tc.m, tc.w, tc.seed)
		got := mustCode(t, tc.n, tc.m, tc.w, tc.seed)
		for v := range want.VarNbrs {
			if !slices.Equal(got.VarNbrs[v], want.VarNbrs[v]) {
				t.Fatalf("%+v: variable %d checks %v, want %v", tc, v, got.VarNbrs[v], want.VarNbrs[v])
			}
		}
		for c := range want.CheckNbrs {
			if !slices.Equal(got.CheckNbrs[c], want.CheckNbrs[c]) {
				t.Fatalf("%+v: check %d variables %v, want %v", tc, c, got.CheckNbrs[c], want.CheckNbrs[c])
			}
		}
	}
}
