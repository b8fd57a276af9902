// Package ldpc implements the workload of the paper's test chips: Low
// Density Parity Check encoding and decoding (Theocharides et al., "Implementing
// LDPC Decoder on Network-on-Chip", ISVLSI 2005 — the paper's reference
// [3]). The decoder is a fixed-point normalized min-sum message-passing
// decoder with a flooding schedule, chosen because flooding makes the
// distributed (on-NoC) evaluation bit-exact with the reference software
// decoder regardless of how variable and check nodes are partitioned across
// PEs.
package ldpc

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Code is a binary LDPC code defined by its parity-check matrix H
// (M checks × N variables), stored sparsely as adjacency lists, together
// with a derived systematic encoder.
type Code struct {
	// N is the codeword length (number of variable nodes).
	N int
	// M is the number of parity checks (check nodes).
	M int

	// CheckNbrs[c] lists the variable nodes participating in check c.
	CheckNbrs [][]int
	// VarNbrs[v] lists the checks in which variable v participates.
	VarNbrs [][]int

	// k is the information length after encoder derivation (N - rank(H)).
	k int
	// parityOf maps each of the k information positions into the codeword,
	// infoCols[i] being the codeword column carrying information bit i;
	// parityCols[j] carries parity bit j.
	infoCols   []int
	parityCols []int
	// parityEq holds row j of the systematic A matrix as a bit set over
	// the information bits, words uint64s per row: parity bit j is the
	// XOR of the information bits set in parityEq[j*words:(j+1)*words].
	parityEq []uint64
	words    int
}

// K returns the information length of the code.
func (c *Code) K() int { return c.k }

// Rate returns the code rate K/N.
func (c *Code) Rate() float64 { return float64(c.k) / float64(c.N) }

// Edges returns the total number of Tanner-graph edges, the unit of both
// decoder computation and inter-PE communication.
func (c *Code) Edges() int {
	e := 0
	for _, nb := range c.CheckNbrs {
		e += len(nb)
	}
	return e
}

// NewRegular constructs a (colWeight, rowWeight)-regular-ish LDPC code with
// n variables and m checks via constrained random edge placement: each
// variable connects to colWeight distinct checks, always choosing among the
// checks with the lowest current degree (random tie-break), which keeps row
// weights within one of each other and avoids duplicate edges. The
// construction is deterministic for a given seed.
func NewRegular(n, m, colWeight int, seed int64) (*Code, error) {
	if n <= 0 || m <= 0 || m >= n {
		return nil, fmt.Errorf("ldpc: invalid code size n=%d m=%d", n, m)
	}
	if colWeight < 2 || colWeight > m {
		return nil, fmt.Errorf("ldpc: invalid column weight %d", colWeight)
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 32; attempt++ {
		c, err := buildRegular(n, m, colWeight, rng)
		if err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("ldpc: could not derive a systematic encoder for n=%d m=%d w=%d", n, m, colWeight)
}

func buildRegular(n, m, colWeight int, rng *rand.Rand) (*Code, error) {
	c := &Code{
		N:         n,
		M:         m,
		CheckNbrs: make([][]int, m),
		VarNbrs:   make([][]int, n),
	}
	deg := make([]int, m)
	pick := make([]int, colWeight)
	for v := 0; v < n; v++ {
		// Select colWeight distinct checks of minimal degree, ties broken
		// by a random order.
		for _, ch := range lowestDegree(pick, rng.Perm(m), deg) {
			c.CheckNbrs[ch] = append(c.CheckNbrs[ch], v)
			c.VarNbrs[v] = append(c.VarNbrs[v], ch)
			deg[ch]++
		}
	}
	if err := c.deriveEncoder(); err != nil {
		return nil, err
	}
	return c, nil
}

// lowestDegree fills pick with the len(pick) checks of order that come
// first when order is stably sorted by degree — the smallest by (degree,
// position in order) — in that sorted order, in one pass over order.
func lowestDegree(pick, order, deg []int) []int {
	n := 0
	for _, ch := range order {
		d := deg[ch]
		// Later positions lose ties, so ch enters only ahead of a pick
		// of strictly higher degree.
		i := n
		for i > 0 && deg[pick[i-1]] > d {
			i--
		}
		if i == len(pick) {
			continue
		}
		if n < len(pick) {
			n++
		}
		copy(pick[i+1:n], pick[i:n-1])
		pick[i] = ch
	}
	return pick[:n]
}

// deriveEncoder Gaussian-eliminates H over GF(2) into [A | I] form (with
// column pivoting) and extracts the parity equations as bit rows.
// Codewords are laid out in natural column order; infoCols and parityCols
// record which codeword positions hold information and parity.
func (c *Code) deriveEncoder() error {
	m, n := c.M, c.N
	// Dense bit matrix, one row per check, packed into uint64 words.
	words := (n + 63) / 64
	h := make([][]uint64, m)
	for ch := 0; ch < m; ch++ {
		h[ch] = make([]uint64, words)
		for _, v := range c.CheckNbrs[ch] {
			h[ch][v/64] |= 1 << (uint(v) % 64)
		}
	}
	get := func(row []uint64, col int) bool { return row[col/64]>>(uint(col)%64)&1 == 1 }

	pivotCol := make([]int, 0, m) // pivot column of each eliminated row
	usedCol := make([]bool, n)
	row := 0
	for col := 0; col < n && row < m; col++ {
		// Find a row at or below 'row' with a 1 in this column.
		sel := -1
		for r := row; r < m; r++ {
			if get(h[r], col) {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		h[row], h[sel] = h[sel], h[row]
		for r := 0; r < m; r++ {
			if r != row && get(h[r], col) {
				for w := 0; w < words; w++ {
					h[r][w] ^= h[row][w]
				}
			}
		}
		pivotCol = append(pivotCol, col)
		usedCol[col] = true
		row++
	}
	rank := row
	if rank < m {
		// Redundant checks exist; the paper's codes are full rank, and a
		// rank-deficient draw just triggers a reconstruction with fresh
		// randomness.
		return fmt.Errorf("ldpc: H has rank %d < %d", rank, m)
	}

	// Pivot columns carry parity bits; the remaining columns carry
	// information bits.
	c.k = n - rank
	c.parityCols = append([]int(nil), pivotCol...)
	c.infoCols = c.infoCols[:0]
	infoIdx := make([]int, n)
	for col := 0; col < n; col++ {
		if !usedCol[col] {
			infoIdx[col] = len(c.infoCols)
			c.infoCols = append(c.infoCols, col)
		}
	}
	// After full reduction, row r reads: parity(pivotCol[r]) = XOR of the
	// information columns set in row r.
	c.words = (c.k + 63) / 64
	c.parityEq = make([]uint64, rank*c.words)
	for r := 0; r < rank; r++ {
		eq := c.parityEq[r*c.words : (r+1)*c.words]
		for _, col := range c.infoCols {
			if get(h[r], col) {
				i := infoIdx[col]
				eq[i/64] |= 1 << (uint(i) % 64)
			}
		}
	}
	return nil
}

// Encode maps k information bits to an n-bit codeword satisfying every
// parity check.
func (c *Code) Encode(info []uint8) ([]uint8, error) {
	if len(info) != c.k {
		return nil, fmt.Errorf("ldpc: encoding %d bits with k=%d", len(info), c.k)
	}
	cw := make([]uint8, c.N)
	packed := make([]uint64, c.words)
	for i, col := range c.infoCols {
		cw[col] = info[i] & 1
		packed[i/64] |= uint64(info[i]&1) << (uint(i) % 64)
	}
	for j, col := range c.parityCols {
		ones := 0
		for w, row := range c.parityEq[j*c.words : (j+1)*c.words] {
			ones += bits.OnesCount64(row & packed[w])
		}
		cw[col] = uint8(ones & 1)
	}
	return cw, nil
}

// CheckSyndrome reports whether every parity check is satisfied.
func (c *Code) CheckSyndrome(bits []uint8) bool {
	if len(bits) != c.N {
		return false
	}
	for _, nbrs := range c.CheckNbrs {
		s := uint8(0)
		for _, v := range nbrs {
			s ^= bits[v] & 1
		}
		if s != 0 {
			return false
		}
	}
	return true
}
