package noc

import (
	"fmt"
	"math/bits"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
)

// Stats aggregates network-level performance counters for one run window.
type Stats struct {
	PacketsSent      int64
	PacketsDelivered int64
	FlitsInjected    int64
	FlitsDelivered   int64
	LatencySum       int64
	LatencyMax       int64
	Cycles           int64
}

// AvgLatency returns the mean packet latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.PacketsDelivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.PacketsDelivered)
}

// Throughput returns delivered flits per cycle.
func (s Stats) Throughput() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FlitsDelivered) / float64(s.Cycles)
}

// ni is the network interface of one PE: a queue of packets awaiting
// injection, of which the first has sent flits already, and the
// reassembly state of the worm currently being ejected.
type ni struct {
	queue []*Packet
	head  int // queue[head] is the packet being injected
	sent  int // flits of queue[head] already injected
	flits int // flits queued and not yet injected
	// reassembly is the worm currently being ejected.
	reassembly *Packet
}

// Network is the cycle-accurate mesh simulator.
type Network struct {
	Grid geom.Grid
	Cfg  Config

	routers []router
	nis     []ni

	// Cycle is the current simulation cycle.
	Cycle int64
	// Act counts switching events per block for the power model.
	Act *power.Activity
	// Stats holds the performance counters.
	Stats Stats

	// Deliver, when non-nil, receives each packet as its tail flit leaves
	// the destination NI.
	Deliver func(pkt *Packet)

	inflight int64
	nextID   uint64
}

// New builds a network over grid g.
func New(g geom.Grid, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Grid:    g,
		Cfg:     cfg,
		routers: make([]router, g.N()),
		nis:     make([]ni, g.N()),
		Act:     power.NewActivity(g.N()),
	}
	for i := range n.routers {
		r := &n.routers[i]
		r.coord = g.Coord(i)
		for d := Dir(0); d < numDirs; d++ {
			r.nbr[d] = -1
			if nb := r.coord.Add(d.offset()); d != Local && g.Contains(nb) {
				r.nbr[d] = g.Index(nb)
			}
			r.in[d].buf = newFifo(cfg.BufDepth)
		}
	}
	return n, nil
}

// NextID allocates a fresh packet ID.
func (n *Network) NextID() uint64 {
	n.nextID++
	return n.nextID
}

// Send enqueues a packet for injection at its source NI. The packet is
// stamped with the current cycle; flits enter the router as buffer space
// allows. Send fails if the source or destination is off-grid, the worm
// length is invalid, or a bounded injection queue is full.
func (n *Network) Send(pkt *Packet) error {
	if !n.Grid.Contains(pkt.Src) || !n.Grid.Contains(pkt.Dst) {
		return fmt.Errorf("noc: packet %d endpoints %v->%v outside %dx%d grid",
			pkt.ID, pkt.Src, pkt.Dst, n.Grid.W, n.Grid.H)
	}
	if pkt.NFlits < 1 {
		return fmt.Errorf("noc: packet %d has %d flits", pkt.ID, pkt.NFlits)
	}
	q := &n.nis[n.Grid.Index(pkt.Src)]
	if n.Cfg.InjectCap > 0 && q.flits+pkt.NFlits > n.Cfg.InjectCap {
		return fmt.Errorf("noc: injection queue full at %v", pkt.Src)
	}
	if len(q.queue) == cap(q.queue) && q.head >= len(q.queue)/2 {
		// Reclaim the injected prefix before growing the queue.
		live := copy(q.queue, q.queue[q.head:])
		clear(q.queue[live:])
		q.queue = q.queue[:live]
		q.head = 0
	}
	pkt.InjectCycle = n.Cycle
	q.queue = append(q.queue, pkt)
	q.flits += pkt.NFlits
	n.Stats.PacketsSent++
	n.Stats.FlitsInjected += int64(pkt.NFlits)
	n.inflight += int64(pkt.NFlits)
	return nil
}

// Busy reports whether any flit is still queued, buffered or latched.
func (n *Network) Busy() bool { return n.inflight > 0 }

// Step advances the network by one clock cycle. Phases run in a fixed
// order — ejection, link traversal, switch allocation/traversal,
// injection — over routers in row-major order, so runs are deterministic.
// A cycle of an idle network only advances the cycle counters.
//
//hotnoc:noalloc
func (n *Network) Step() {
	if n.inflight > 0 {
		n.eject()
		n.linkTraversal()
		n.switchAllocTraversal()
		n.inject()
	}
	n.Cycle++
	n.Stats.Cycles++
}

// Run steps the network for the given number of cycles. Once the network
// is idle it skips the remaining cycles in one jump, since an idle cycle
// changes nothing but Cycle and Stats.Cycles.
func (n *Network) Run(cycles int64) {
	for ; cycles > 0 && n.Busy(); cycles-- {
		n.Step()
	}
	if cycles > 0 {
		n.Cycle += cycles
		n.Stats.Cycles += cycles
	}
}

// Drain runs until the network is empty, up to maxCycles. It returns the
// number of cycles stepped, or an error if traffic remains — which, with
// deadlock-free XY routing, indicates an application-level sink failure.
func (n *Network) Drain(maxCycles int64) (int64, error) {
	start := n.Cycle
	for n.Busy() {
		if n.Cycle-start >= maxCycles {
			return n.Cycle - start, fmt.Errorf("noc: %d flits still in flight after %d cycles",
				n.inflight, maxCycles)
		}
		n.Step()
	}
	return n.Cycle - start, nil
}

// eject delivers flits sitting in Local output latches to their NIs.
// Ejection is always accepted: the NI is an infinite sink, which rules out
// protocol deadlock.
func (n *Network) eject() {
	for i := range n.routers {
		r := &n.routers[i]
		if r.latched&(1<<Local) == 0 {
			continue
		}
		f := r.out[Local].flit
		r.out[Local].flit = Flit{}
		r.latched &^= 1 << Local
		n.inflight--
		sink := &n.nis[i]
		if f.IsHead() {
			if sink.reassembly != nil {
				panic("noc: interleaved worms at ejection (wormhole ownership broken)")
			}
			sink.reassembly = f.Pkt
		} else if sink.reassembly != f.Pkt {
			panic("noc: body flit of a foreign worm at ejection")
		}
		if f.IsTail() {
			pkt := f.Pkt
			sink.reassembly = nil
			pkt.EjectCycle = n.Cycle
			n.Stats.PacketsDelivered++
			n.Stats.FlitsDelivered += int64(pkt.NFlits)
			if lat := pkt.Latency(); lat > n.Stats.LatencyMax {
				n.Stats.LatencyMax = lat
			}
			n.Stats.LatencySum += pkt.Latency()
			if n.Deliver != nil {
				n.Deliver(pkt) //hotnoc:allow noalloc the application's sink; the kernel itself allocates nothing, and the callback's own cost is the caller's
			}
		}
	}
}

// linkTraversal moves flits from output latches into the downstream input
// buffers, subject to buffer space (credit backpressure).
func (n *Network) linkTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		for m := r.latched &^ (1 << Local); m != 0; m &= m - 1 {
			d := Dir(bits.TrailingZeros8(m))
			j, od := r.nbr[d], opposite[d]
			if n.routers[j].in[od].buf.full() {
				continue // stall; retry next cycle
			}
			n.routers[j].accept(od, r.out[d].flit)
			r.out[d].flit = Flit{}
			r.latched &^= 1 << d
			n.Act.Link[i]++
			n.Act.BufWrites[j]++
		}
	}
}

// switchAllocTraversal arbitrates each free output port among requesting
// inputs and moves the winners' front flits across the crossbar. Outputs
// are visited in port order, and a winner's request is recomputed right
// after its pop: when a tail leaves, the next worm's head in the same
// input may win a later free output in the same cycle.
func (n *Network) switchAllocTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		if r.occupied == 0 {
			continue
		}
		// want[o] has bit in set while input in requests output o, and
		// free has bit o set while o is requested and its latch is free.
		var want [numDirs]uint8
		var free uint8
		for occ := r.occupied; occ != 0; occ &= occ - 1 {
			in := Dir(bits.TrailingZeros8(occ))
			o := r.in[in].req
			want[o] |= 1 << in
			free |= 1 << o
		}
		free &^= r.latched
		for free != 0 {
			o := Dir(bits.TrailingZeros8(free))
			free &^= 1 << o
			winner, ok := r.arbitrate(o, want[o])
			if !ok {
				continue
			}
			n.Act.Arb[i]++
			ip := &r.in[winner]
			f := ip.buf.pop()
			n.Act.BufReads[i]++
			n.Act.Xbar[i]++
			op := &r.out[o]
			op.flit = f
			r.latched |= 1 << o
			if f.IsHead() {
				op.owner = winner
				op.owned = true
				ip.route = o
				ip.holding = true
			}
			if f.IsTail() {
				op.owned = false
				ip.holding = false
			}
			if ip.buf.empty() {
				r.occupied &^= 1 << winner
				continue
			}
			// Outputs before o are done and o is now latched, so only a
			// later free output can see the winner's next request.
			next := r.request(winner)
			ip.req = next
			if next > o && r.latched&(1<<next) == 0 {
				want[next] |= 1 << winner
				free |= 1 << next
			}
		}
	}
}

// inject moves flits from NI queues into the Local input buffers, one flit
// per cycle across each NI-router interface.
func (n *Network) inject() {
	for i := range n.nis {
		q := &n.nis[i]
		r := &n.routers[i]
		if q.flits == 0 || r.in[Local].buf.full() {
			continue
		}
		pkt := q.queue[q.head]
		r.accept(Local, Flit{Pkt: pkt, Seq: q.sent})
		n.Act.BufWrites[i]++
		q.flits--
		if q.sent++; q.sent == pkt.NFlits {
			q.queue[q.head] = nil
			q.head++
			q.sent = 0
			if q.head == len(q.queue) {
				q.queue = q.queue[:0]
				q.head = 0
			}
		}
	}
}

// ResetStats clears the performance counters and activity counters while
// leaving in-flight traffic untouched; the runtime manager calls this at
// migration-period boundaries to window the power measurement.
func (n *Network) ResetStats() {
	n.Stats = Stats{}
	n.Act.Reset()
}
