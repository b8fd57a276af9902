package noc

import (
	"fmt"
	"math/rand"

	"hotnoc/internal/geom"
)

// Pattern selects a destination for a packet injected at src, or reports
// none (ok=false) when the node should stay silent under this pattern.
type Pattern func(r *rand.Rand, g geom.Grid, src geom.Coord) (dst geom.Coord, ok bool)

// UniformRandom sends to any node but the source with equal probability.
func UniformRandom(r *rand.Rand, g geom.Grid, src geom.Coord) (geom.Coord, bool) {
	if g.N() < 2 {
		return geom.Coord{}, false
	}
	for {
		d := g.Coord(r.Intn(g.N()))
		if d != src {
			return d, true
		}
	}
}

// Transpose sends (x,y) -> (y,x); diagonal nodes stay silent. On a square
// mesh this is the classic adversarial pattern for XY routing.
func Transpose(_ *rand.Rand, g geom.Grid, src geom.Coord) (geom.Coord, bool) {
	if g.W != g.H || src.X == src.Y {
		return geom.Coord{}, false
	}
	return geom.Coord{X: src.Y, Y: src.X}, true
}

// HotspotPattern concentrates a fraction of traffic on one node and
// scatters the rest uniformly — the canonical stimulus for creating the
// localized heating this paper is about.
func HotspotPattern(hot geom.Coord, frac float64) Pattern {
	return func(r *rand.Rand, g geom.Grid, src geom.Coord) (geom.Coord, bool) {
		if r.Float64() < frac && src != hot {
			return hot, true
		}
		return UniformRandom(r, g, src)
	}
}

// Generator drives Bernoulli packet injection at every node each cycle.
type Generator struct {
	net     *Network
	pattern Pattern
	rng     *rand.Rand
	// Rate is the per-node injection probability per cycle.
	Rate float64
	// NFlits is the worm length of generated packets.
	NFlits int
	// Dropped counts injections refused by a full bounded queue.
	Dropped int64
}

// NewGenerator builds a generator with a deterministic seed.
func NewGenerator(net *Network, pattern Pattern, rate float64, nflits int, seed int64) (*Generator, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("noc: injection rate %g outside [0,1]", rate)
	}
	if nflits < 1 {
		return nil, fmt.Errorf("noc: worm length %d < 1", nflits)
	}
	return &Generator{
		net:     net,
		pattern: pattern,
		rng:     rand.New(rand.NewSource(seed)),
		Rate:    rate,
		NFlits:  nflits,
	}, nil
}

// Tick performs one cycle's worth of injections; call it once per
// Network.Step.
func (gen *Generator) Tick() {
	g := gen.net.Grid
	for _, src := range g.Coords() {
		if gen.rng.Float64() >= gen.Rate {
			continue
		}
		dst, ok := gen.pattern(gen.rng, g, src)
		if !ok {
			continue
		}
		pkt := &Packet{ID: gen.net.NextID(), Src: src, Dst: dst, NFlits: gen.NFlits}
		if err := gen.net.Send(pkt); err != nil {
			gen.Dropped++
		}
	}
}
