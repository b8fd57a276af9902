package noc

import (
	"math/bits"

	"hotnoc/internal/geom"
)

// fifo is a fixed-capacity flit FIFO implemented as a ring buffer; input
// buffers are the only queues inside a router.
type fifo struct {
	slots []Flit
	head  int
	n     int
}

func newFifo(capacity int) fifo {
	return fifo{slots: make([]Flit, capacity)}
}

func (q *fifo) full() bool  { return q.n == len(q.slots) }
func (q *fifo) empty() bool { return q.n == 0 }
func (q *fifo) front() Flit { return q.slots[q.head] }

func (q *fifo) push(f Flit) {
	if q.full() {
		panic("noc: push to full fifo (flow control broken)")
	}
	i := q.head + q.n
	if i >= len(q.slots) {
		i -= len(q.slots)
	}
	q.slots[i] = f
	q.n++
}

func (q *fifo) pop() Flit {
	if q.empty() {
		panic("noc: pop from empty fifo")
	}
	f := q.slots[q.head]
	q.slots[q.head] = Flit{}
	q.head++
	if q.head == len(q.slots) {
		q.head = 0
	}
	q.n--
	return f
}

// inPort is one input port: a FIFO plus the wormhole route state of the
// packet currently flowing through it.
type inPort struct {
	buf fifo
	// route is the output port allocated to the in-flight worm.
	route Dir
	// holding is true while a worm's flits still follow route.
	holding bool
	// req is the output the front flit requests, valid while the FIFO is
	// not empty. It changes only when the front changes, so it is
	// computed then rather than every cycle.
	req Dir
}

// outPort is a one-deep output latch feeding the link to the neighbour
// (or the ejection path for Local). Whether the latch holds a flit is the
// port's bit in router.latched.
type outPort struct {
	flit Flit
	// owner is the input port whose worm currently owns this output;
	// ownership starts at head grant and ends when the tail traverses.
	owner Dir
	owned bool
	// rr is the round-robin arbitration pointer over input ports.
	rr Dir
}

// router is one mesh node. All state transitions happen inside
// Network.Step in a fixed phase order, so routers need no goroutines and
// the simulation is bit-reproducible.
type router struct {
	coord geom.Coord
	// nbr[d] is the block index of the neighbour in direction d (-1 off
	// the mesh, and unused for Local).
	nbr [numDirs]int
	// occupied has bit d set while input FIFO d holds a flit.
	occupied uint8
	// latched has bit d set while output latch d holds a flit.
	latched uint8
	in      [numDirs]inPort
	out     [numDirs]outPort
}

// accept pushes f into input d's FIFO. A flit arriving at an empty FIFO
// is the new front, so its request is computed here.
func (r *router) accept(d Dir, f Flit) {
	ip := &r.in[d]
	ip.buf.push(f)
	if r.occupied&(1<<d) == 0 {
		r.occupied |= 1 << d
		ip.req = r.request(d)
	}
}

// request returns the output port the front flit of the non-empty input
// in asks for: the worm's allocated route while it holds one, otherwise
// the XY route of the head flit.
func (r *router) request(in Dir) Dir {
	ip := &r.in[in]
	if ip.holding {
		return ip.route
	}
	f := ip.buf.front()
	if !f.IsHead() {
		// A body flit with no route state means the head was
		// mis-sequenced; impossible by construction.
		panic("noc: body flit at port head without route state")
	}
	return routeXY(r.coord, f.Pkt.Dst)
}

// arbitrate runs one round of switch allocation for output port o among
// the inputs in want (bit i set when input i requests o), returning the
// winning input port and whether anyone won. Round-robin starts after the
// previous winner, giving each input fair access — the same policy for
// every router keeps migration timing deterministic.
func (r *router) arbitrate(o Dir, want uint8) (Dir, bool) {
	op := &r.out[o]
	if op.owned {
		// Wormhole continuity: only the owner may use the port.
		return op.owner, want&(1<<op.owner) != 0
	}
	if want == 0 {
		return 0, false
	}
	// Rotate want so bit 0 is the input after the pointer; the lowest set
	// bit is then the first requester in round-robin order.
	start := uint(op.rr) + 1
	rot := (want>>start | want<<(uint(numDirs)-start)) & (1<<numDirs - 1)
	cand := Dir(start) + Dir(bits.TrailingZeros8(rot))
	if cand >= numDirs {
		cand -= numDirs
	}
	op.rr = cand
	return cand, true
}
