package thermal

import (
	"fmt"
	"math"
)

// This file implements the structure-exploiting solver that serves every
// hot-path solve in the package. The RC network of a W×H floorplan is
// physically a grid: each die node couples to at most four lateral
// neighbours plus its own spreader node, each spreader node to its lateral
// neighbours, its die node and the lumped sink. Ordering the nodes so die
// and spreader cells interleave (die i ↦ 2i, spreader i ↦ 2i+1) makes the
// conductance matrix G — and every backward-Euler iteration matrix
// C/dt + G, which differs only on the diagonal — banded with half
// bandwidth ~2·W, except for the single dense sink row/column, which is
// handled as a bordered block. Factorisation then costs O(n·k²) instead of
// the dense O(n³) and each solve O(n·k) instead of O(n²).
//
// Stability without pivoting: the matrices are symmetric and (weakly)
// diagonally dominant with positive diagonal — every off-diagonal entry is
// the negative of a physical conductance also added to both diagonals, and
// the ambient coupling adds a strict surplus on the sink row — so they are
// positive semi-definite, and positive definite exactly when every node
// has a path to ambient. For this class, LU factorisation without
// pivoting is backward stable (Golub & Van Loan §4.1.1); FactorBanded
// asserts the properties at factor time and reports a zero/negative pivot
// as the physical "no path to ambient" singularity, exactly like the
// pivoted dense LU the tests use as a reference.

// BandedLU is the factorisation of a symmetric diagonally-dominant matrix
// that is banded under a node permutation except for one dense border
// row/column (the lumped heat-sink node). It supports single and batched
// multi-RHS solves; it carries scratch state and must not be shared
// between goroutines.
type BandedLU struct {
	n      int   // full order, banded block plus the border node
	nb     int   // banded block order
	k      int   // half bandwidth of the banded block
	stride int   // 2k+1, the band-storage row stride
	border int   // node index of the dense border row/column
	perm   []int // perm[node] = banded position; perm[border] = -1

	// ab is the factored band in row-major band storage: entry (i, j) of
	// the banded block lives at ab[i*stride + (j-i+k)]. After Factor it
	// holds unit-diagonal L below and U on and above the diagonal.
	ab []float64
	// bcol is the border coupling column b (banded order), y = A⁻¹·b, and
	// schur = d - bᵀ·y the Schur complement of the border node, so a solve
	// against [[A, b], [bᵀ, d]] is two banded sweeps plus rank-one fixup.
	bcol  []float64
	y     []float64
	schur float64

	x   []float64 // single-RHS scratch, banded order
	xm  []float64 // multi-RHS scratch, grown on demand
	acc []float64 // per-column border accumulator scratch
}

// FactorBanded factorises m, which must be symmetric, (weakly) diagonally
// dominant, and banded under perm outside the single border row/column.
// perm maps every non-border node to its position in the banded ordering
// and the border node to -1; the half bandwidth is detected from the
// non-zero pattern. A zero or negative pivot — the matrix class makes
// them equivalent to singularity — is reported as a node with no path to
// ambient, matching the pivoted dense reference LU.
func FactorBanded(m *Dense, border int, perm []int) (*BandedLU, error) {
	n := m.N
	if border < 0 || border >= n {
		panic(fmt.Sprintf("thermal: border node %d outside %d-node system", border, n))
	}
	if len(perm) != n {
		panic(fmt.Sprintf("thermal: permutation has %d entries for %d nodes", len(perm), n))
	}
	nb := n - 1
	seen := make([]bool, nb)
	for node, p := range perm {
		if node == border {
			if p != -1 {
				panic("thermal: border node must map to -1 in the band permutation")
			}
			continue
		}
		if p < 0 || p >= nb || seen[p] {
			panic("thermal: band permutation is not a bijection onto the non-border nodes")
		}
		seen[p] = true
	}
	if err := checkSymmetricDominant(m); err != nil {
		return nil, err
	}

	// Half bandwidth from the non-zero pattern (≈2·gridwidth for the
	// interleaved mesh ordering; fill-in during elimination stays inside).
	k := 0
	for i := 0; i < n; i++ {
		if i == border {
			continue
		}
		for j := i + 1; j < n; j++ {
			if j == border || m.At(i, j) == 0 {
				continue
			}
			if w := perm[j] - perm[i]; w > k {
				k = w
			} else if -w > k {
				k = -w
			}
		}
	}

	f := &BandedLU{
		n: n, nb: nb, k: k, stride: 2*k + 1, border: border,
		perm: append([]int(nil), perm...),
		ab:   make([]float64, nb*(2*k+1)),
		bcol: make([]float64, nb),
		y:    make([]float64, nb),
		x:    make([]float64, nb),
	}
	for i := 0; i < n; i++ {
		if i == border {
			continue
		}
		pi := perm[i]
		f.ab[pi*f.stride+k] = m.At(i, i)
		f.bcol[pi] = m.At(i, border)
		for j := i + 1; j < n; j++ {
			if j == border {
				continue
			}
			if v := m.At(i, j); v != 0 {
				pj := perm[j]
				f.ab[pi*f.stride+(pj-pi+k)] = v
				f.ab[pj*f.stride+(pi-pj+k)] = v
			}
		}
	}

	// Singularity threshold: for this matrix class genuine pivots are
	// bounded below by each row's dominance surplus (the coupling toward
	// ambient), while an eliminated no-path-to-ambient node leaves only
	// rounding residue, many orders of magnitude below the diagonal scale.
	dmax := 0.0
	for i := 0; i < n; i++ {
		if d := m.At(i, i); d > dmax {
			dmax = d
		}
	}
	tiny := 1e-9 * dmax

	// Unpivoted banded LU (Doolittle): stable for this symmetric
	// diagonally-dominant class, asserted above.
	for col := 0; col < nb; col++ {
		piv := f.ab[col*f.stride+k]
		if !(piv > tiny) {
			return nil, fmt.Errorf("thermal: singular system (pivot %g at banded column %d); some node has no path to ambient", piv, col)
		}
		rmax := col + k
		if rmax > nb-1 {
			rmax = nb - 1
		}
		pivRow := f.ab[col*f.stride:]
		for r := col + 1; r <= rmax; r++ {
			rRow := f.ab[r*f.stride:]
			d := col - r + k // column col's offset in row r's band storage
			l := rRow[d] / piv
			rRow[d] = l
			if l == 0 {
				continue
			}
			for cc := 1; cc <= rmax-col; cc++ {
				rRow[d+cc] -= l * pivRow[k+cc]
			}
		}
	}

	// Border elimination: y = A⁻¹·b and the Schur complement
	// d - bᵀ·y, which is the sink's effective conductance to ambient —
	// non-positive exactly when the network floats with no ambient path.
	copy(f.y, f.bcol)
	f.solveSingle(f.y)
	d := m.At(border, border)
	acc := 0.0
	for i, b := range f.bcol {
		if b != 0 {
			acc += b * f.y[i]
		}
	}
	f.schur = d - acc
	if !(f.schur > tiny) {
		return nil, fmt.Errorf("thermal: singular system (border Schur complement %g); the heat sink has no path to ambient", f.schur)
	}
	return f, nil
}

// checkSymmetricDominant asserts the structural properties the unpivoted
// banded factorisation relies on: symmetry and weak diagonal dominance
// with non-negative diagonal (within rounding slack). The thermal stamps
// construct exactly this class; anything else needs a pivoting
// factorisation.
func checkSymmetricDominant(m *Dense) error {
	n := m.N
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			a, b := m.At(i, j), m.At(j, i)
			if d := math.Abs(a - b); d > 1e-9*(math.Abs(a)+math.Abs(b)) {
				return fmt.Errorf("thermal: matrix not symmetric at (%d,%d): %g vs %g; banded factorisation requires the symmetric RC form", i, j, a, b)
			}
			off += math.Abs(a)
		}
		diag := m.At(i, i)
		if diag < 0 || diag < off*(1-1e-9) {
			return fmt.Errorf("thermal: row %d not diagonally dominant (diagonal %g, off-diagonal sum %g); unpivoted banded factorisation would be unstable", i, diag, off)
		}
	}
	return nil
}

// solveSingle performs the banded forward and back substitution in place
// on one right-hand side with flat indexing — the per-solve hot path.
// Its operation sequence (ascending j, zero factors skipped, one
// subtraction per in-band entry, final division by the pivot) is exactly
// solveCols' per-column sequence, which is what makes a batched solve
// bitwise identical to repeated single solves.
//
//hotnoc:noalloc
func (f *BandedLU) solveSingle(x []float64) {
	nb, k, stride := f.nb, f.k, f.stride
	for i := 1; i < nb; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		row := f.ab[i*stride:]
		s := x[i]
		for j := lo; j < i; j++ {
			if l := row[j-i+k]; l != 0 {
				s -= l * x[j]
			}
		}
		x[i] = s
	}
	for i := nb - 1; i >= 0; i-- {
		hi := i + k
		if hi > nb-1 {
			hi = nb - 1
		}
		row := f.ab[i*stride:]
		s := x[i]
		for j := i + 1; j <= hi; j++ {
			if u := row[j-i+k]; u != 0 {
				s -= u * x[j]
			}
		}
		x[i] = s / row[k]
	}
}

// solveCols performs the banded forward and back substitution in place on
// ncols right-hand sides stored row-major (x[i*ncols+c] is row i of column
// c). The per-column arithmetic is identical for every ncols and matches
// solveSingle, so a batched solve is bitwise identical to ncols sequential
// single solves.
//
//hotnoc:noalloc
func (f *BandedLU) solveCols(x []float64, ncols int) {
	nb, k, stride := f.nb, f.k, f.stride
	// Forward substitution with unit-diagonal L.
	for i := 1; i < nb; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		row := f.ab[i*stride : i*stride+k]
		xi := x[i*ncols : (i+1)*ncols]
		for j := lo; j < i; j++ {
			l := row[j-i+k]
			if l == 0 {
				continue
			}
			xj := x[j*ncols : (j+1)*ncols]
			for c := range xi {
				xi[c] -= l * xj[c]
			}
		}
	}
	// Back substitution with U.
	for i := nb - 1; i >= 0; i-- {
		hi := i + k
		if hi > nb-1 {
			hi = nb - 1
		}
		row := f.ab[i*stride:]
		xi := x[i*ncols : (i+1)*ncols]
		for j := i + 1; j <= hi; j++ {
			u := row[j-i+k]
			if u == 0 {
				continue
			}
			xj := x[j*ncols : (j+1)*ncols]
			for c := range xi {
				xi[c] -= u * xj[c]
			}
		}
		piv := row[k]
		for c := range xi {
			xi[c] /= piv
		}
	}
}

// Solve solves M·x = b into dst, both in node order. dst and b may alias.
// It is allocation-free.
//
//hotnoc:noalloc
func (f *BandedLU) Solve(dst, b []float64) {
	if len(dst) != f.n || len(b) != f.n {
		panic("thermal: banded Solve dimension mismatch")
	}
	x := f.x
	for node, p := range f.perm {
		if p >= 0 {
			x[p] = b[node]
		}
	}
	rb := b[f.border]
	f.solveSingle(x)
	acc := 0.0
	for i, bc := range f.bcol {
		if bc != 0 {
			acc += bc * x[i]
		}
	}
	s := (rb - acc) / f.schur
	for node, p := range f.perm {
		if p >= 0 {
			dst[node] = x[p] - f.y[p]*s
		}
	}
	dst[f.border] = s
}

// SolveBatch solves M·X = B for ncols right-hand sides with one pass over
// the factorisation. dst and rhs are row-major n×ncols blocks (row i holds
// node i's value for every column) and may alias. One factorisation plus
// one batched sweep serves a whole chunk of steady-state solves — the
// influence-matrix construction feeds the identity block through it — and
// each column's result is bitwise identical to a single Solve of that
// column.
//
//hotnoc:noalloc
func (f *BandedLU) SolveBatch(dst, rhs []float64, ncols int) {
	if ncols <= 0 {
		panic(fmt.Sprintf("thermal: SolveBatch with %d columns", ncols))
	}
	if len(dst) != f.n*ncols || len(rhs) != f.n*ncols {
		panic("thermal: SolveBatch dimension mismatch")
	}
	if cap(f.xm) < f.nb*ncols {
		f.xm = make([]float64, f.nb*ncols) //hotnoc:allow noalloc amortized scratch growth; steady-state batches reuse it at 0 allocs/op
	}
	if cap(f.acc) < 2*ncols {
		f.acc = make([]float64, 2*ncols) //hotnoc:allow noalloc amortized scratch growth; steady-state batches reuse it at 0 allocs/op
	}
	x := f.xm[:f.nb*ncols]
	acc := f.acc[:ncols]
	s := f.acc[ncols : 2*ncols]
	for node, p := range f.perm {
		if p >= 0 {
			copy(x[p*ncols:(p+1)*ncols], rhs[node*ncols:(node+1)*ncols])
		}
	}
	rb := rhs[f.border*ncols : (f.border+1)*ncols]
	for c := range acc {
		acc[c] = 0
	}
	f.solveCols(x, ncols)
	for i, bc := range f.bcol {
		if bc == 0 {
			continue
		}
		xi := x[i*ncols : (i+1)*ncols]
		for c := range acc {
			acc[c] += bc * xi[c]
		}
	}
	for c := range s {
		s[c] = (rb[c] - acc[c]) / f.schur
	}
	for node, p := range f.perm {
		if p < 0 {
			continue
		}
		di := dst[node*ncols : (node+1)*ncols]
		xi := x[p*ncols : (p+1)*ncols]
		yp := f.y[p]
		for c := range di {
			di[c] = xi[c] - yp*s[c]
		}
	}
	copy(dst[f.border*ncols:(f.border+1)*ncols], s)
}
