// Package appmap maps the LDPC decoder onto the NoC: it partitions the
// Tanner graph across processing elements and executes message-passing
// decoding cycle-accurately on the mesh, producing the switching activity,
// per-block timing and traffic irregularity that drive the thermal
// evaluation. Partitions are expressed over *logical* PEs; a placement
// vector maps logical PEs to physical blocks, which is exactly the level at
// which the paper's runtime reconfiguration operates (the logical plane
// moves, the partition does not).
package appmap

import (
	"fmt"
	"math/rand"

	"hotnoc/internal/ldpc"
)

// Partition assigns every variable and check node to a logical PE.
type Partition struct {
	NPE     int
	VarPE   []int
	CheckPE []int
}

// Validate checks index ranges and that every PE owns at least one node.
func (p *Partition) Validate(code *ldpc.Code) error {
	if len(p.VarPE) != code.N || len(p.CheckPE) != code.M {
		return fmt.Errorf("appmap: partition covers %d vars, %d checks; code has %d, %d",
			len(p.VarPE), len(p.CheckPE), code.N, code.M)
	}
	used := make([]bool, p.NPE)
	for v, pe := range p.VarPE {
		if pe < 0 || pe >= p.NPE {
			return fmt.Errorf("appmap: variable %d on PE %d of %d", v, pe, p.NPE)
		}
		used[pe] = true
	}
	for c, pe := range p.CheckPE {
		if pe < 0 || pe >= p.NPE {
			return fmt.Errorf("appmap: check %d on PE %d of %d", c, pe, p.NPE)
		}
		used[pe] = true
	}
	for pe, u := range used {
		if !u {
			return fmt.Errorf("appmap: PE %d owns no nodes", pe)
		}
	}
	return nil
}

// Skewed concentrates check processing: a fraction `heavyShare` of all
// checks lands on the first `heavyPEs` PEs (variables stay striped). This
// reproduces the paper's observation that configurations differ in "the
// amount of computation mapped to a single PE" — check nodes dominate
// decoder energy, so these PEs become the hotspot candidates.
func Skewed(code *ldpc.Code, npe, heavyPEs int, heavyShare float64, seed int64) (*Partition, error) {
	if heavyPEs < 1 || heavyPEs >= npe {
		return nil, fmt.Errorf("appmap: heavyPEs %d outside [1,%d)", heavyPEs, npe)
	}
	if heavyShare <= 0 || heavyShare >= 1 {
		return nil, fmt.Errorf("appmap: heavyShare %g outside (0,1)", heavyShare)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Partition{NPE: npe, VarPE: make([]int, code.N), CheckPE: make([]int, code.M)}
	for v := range p.VarPE {
		p.VarPE[v] = v * npe / code.N
	}
	for c := range p.CheckPE {
		if rng.Float64() < heavyShare {
			p.CheckPE[c] = rng.Intn(heavyPEs)
		} else {
			p.CheckPE[c] = heavyPEs + rng.Intn(npe-heavyPEs)
		}
	}
	return p, nil
}

// SkewedBoth concentrates both check and variable processing on the heavy
// PEs: heavyShare of the checks and varShare of the variables land on the
// first heavyPEs PEs. Because variable-heavy PEs also carry the chip's
// LLR/decision I/O traffic, this is the partition shape that produces the
// paper's warm bands near the I/O interface.
func SkewedBoth(code *ldpc.Code, npe, heavyPEs int, heavyShare, varShare float64, seed int64) (*Partition, error) {
	p, err := Skewed(code, npe, heavyPEs, heavyShare, seed)
	if err != nil {
		return nil, err
	}
	if varShare <= 0 || varShare >= 1 {
		return nil, fmt.Errorf("appmap: varShare %g outside (0,1)", varShare)
	}
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	for v := range p.VarPE {
		if rng.Float64() < varShare {
			p.VarPE[v] = rng.Intn(heavyPEs)
		} else {
			p.VarPE[v] = heavyPEs + rng.Intn(npe-heavyPEs)
		}
	}
	return p, nil
}

// OpsPerPE returns each logical PE's message computations per decoding
// iteration (check-phase plus variable-phase edge updates) — the compute
// load that, multiplied by per-op energy, sets the PE's dynamic power.
func OpsPerPE(code *ldpc.Code, p *Partition) []int64 {
	ops := make([]int64, p.NPE)
	for c, nbrs := range code.CheckNbrs {
		ops[p.CheckPE[c]] += int64(len(nbrs))
	}
	for v, nbrs := range code.VarNbrs {
		ops[p.VarPE[v]] += int64(len(nbrs))
	}
	return ops
}

// TrafficMatrix returns the number of inter-PE messages per decoding
// iteration between each ordered logical PE pair (messages between nodes
// on the same PE never enter the network). Both decoder phases contribute:
// edge (c,v) sends PE(c)->PE(v) in the check phase and PE(v)->PE(c) in the
// variable phase.
func TrafficMatrix(code *ldpc.Code, p *Partition) [][]int64 {
	m := make([][]int64, p.NPE)
	for i := range m {
		m[i] = make([]int64, p.NPE)
	}
	for c, nbrs := range code.CheckNbrs {
		cp := p.CheckPE[c]
		for _, v := range nbrs {
			vp := p.VarPE[v]
			if cp != vp {
				m[cp][vp]++
				m[vp][cp]++
			}
		}
	}
	return m
}
