// Package noc is a cycle-accurate simulator of the paper's test-chip
// interconnect: a 2-D mesh of input-buffered wormhole routers with
// dimension-ordered (XY) routing, one router plus network interface per
// processing element. It stands in for the "modified cycle-accurate NoC
// simulator" the paper ran to obtain switching rates: every buffer access,
// crossbar traversal, arbitration and link traversal is counted per block
// and feeds the power model.
//
// Microarchitecture. Each router has five ports (Local, North, East,
// South, West) with one flit-FIFO per input port. A packet is a worm of
// flits; the head flit computes its route (XY), wins switch allocation
// (round-robin per output port), and the connection then persists until the
// tail flit passes, as in classic wormhole switching. Flits move one
// pipeline stage per cycle — switch traversal into an output latch, then
// link traversal into the downstream input buffer — and advance only when
// the downstream buffer has a free slot, which is the buffer-backpressure
// formulation of credit-based flow control. XY routing makes the channel
// dependency graph acyclic, so the network is deadlock-free; ejection is
// always accepted, preventing protocol deadlock at the NIs.
//
// Same-cycle forwarding. Switch allocation visits a router's output ports
// in port order (Local, North, East, South, West). When a worm's tail
// leaves an input, the next worm's head behind it in that FIFO may win a
// later free output in the same cycle, so one input can forward two flits
// in one cycle. This is a modelled property, not an accident of the
// implementation: it happens some 1,700 times in one paper-scale LDPC
// block decode, and the golden Figure 1 digest pins it.
//
// Idle fast-forward. A cycle in which no flit is queued, buffered or
// latched changes nothing but Network.Cycle and Stats.Cycles, so Step
// does only that, and Run jumps over the remaining cycles in one step
// once the network is idle. Callers with their own event loop (the LDPC
// engine) skip idle stretches the same way, by calling Run up to their
// next event. The skipped cycles still count as simulated cycles: every
// timing, statistic and activity counter is identical to stepping them.
package noc

import (
	"fmt"

	"hotnoc/internal/geom"
)

// Dir enumerates router ports.
type Dir int

// Port order is fixed and gives deterministic arbitration.
const (
	Local Dir = iota
	North
	East
	South
	West
	numDirs
)

var dirNames = [numDirs]string{"Local", "North", "East", "South", "West"}

// String names the port.
//
//hotnoc:allow deadexport fmt.Stringer, reached through fmt verbs in test failure messages
func (d Dir) String() string {
	if d < 0 || d >= numDirs {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return dirNames[d]
}

// opposite maps each port to the port facing it on the neighbouring
// router, for the link phase.
var opposite = [numDirs]Dir{Local, South, West, North, East}

// offset returns the coordinate delta of one hop in direction d.
func (d Dir) offset() geom.Coord {
	switch d {
	case North:
		return geom.Coord{X: 0, Y: 1}
	case South:
		return geom.Coord{X: 0, Y: -1}
	case East:
		return geom.Coord{X: 1, Y: 0}
	case West:
		return geom.Coord{X: -1, Y: 0}
	default:
		return geom.Coord{}
	}
}

// Packet is one message on the network. Its flits are generated at
// injection; Payload carries application data (e.g. a batch of LDPC
// messages) untouched by the network.
type Packet struct {
	ID       uint64
	Src, Dst geom.Coord
	// NFlits is the worm length including head and tail (minimum 1).
	NFlits  int
	Payload any

	// InjectCycle is stamped by Send, EjectCycle on tail delivery.
	InjectCycle int64
	EjectCycle  int64
}

// Latency returns the packet's in-network latency in cycles (including
// source queueing), valid after delivery.
func (p *Packet) Latency() int64 { return p.EjectCycle - p.InjectCycle }

// Flit is one link-width slice of a packet.
type Flit struct {
	Pkt *Packet
	// Seq is the flit index: 0 is the head, NFlits-1 the tail.
	Seq int
}

// IsHead and IsTail identify worm boundaries. A single-flit packet is both.
func (f Flit) IsHead() bool { return f.Seq == 0 }
func (f Flit) IsTail() bool { return f.Seq == f.Pkt.NFlits-1 }

// Config sets the router microarchitecture parameters.
type Config struct {
	// BufDepth is the input FIFO capacity in flits (default 4).
	BufDepth int
	// InjectCap bounds each NI's injection queue in flits; 0 means
	// unbounded (the LDPC PEs generate bounded bursts by construction).
	InjectCap int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.BufDepth == 0 {
		c.BufDepth = 4
	}
	return c
}

// Validate reports nonsensical parameters.
func (c Config) Validate() error {
	if c.BufDepth < 1 {
		return fmt.Errorf("noc: buffer depth %d < 1", c.BufDepth)
	}
	if c.InjectCap < 0 {
		return fmt.Errorf("noc: negative injection queue cap %d", c.InjectCap)
	}
	return nil
}

// routeXY returns the next-hop port from cur towards dst under
// dimension-ordered routing: correct X first, then Y, then eject.
func routeXY(cur, dst geom.Coord) Dir {
	switch {
	case dst.X > cur.X:
		return East
	case dst.X < cur.X:
		return West
	case dst.Y > cur.Y:
		return North
	case dst.Y < cur.Y:
		return South
	default:
		return Local
	}
}
