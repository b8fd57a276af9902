package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/power"
)

// refNetwork is the straightforward cycle kernel the optimized Network
// replaced, kept verbatim as a differential oracle: every router is
// scanned every cycle, arbitration asks a per-port request closure, and
// the NI queues hold one Flit per flit. The optimized kernel must match it
// cycle for cycle — every packet's eject cycle, every Stats counter and
// every power.Activity counter.
type refNetwork struct {
	Grid    geom.Grid
	Cfg     Config
	routers []refRouter
	nis     []refNI
	Cycle   int64
	Act     *power.Activity
	Stats   Stats
	Deliver func(pkt *Packet)

	inflight int64
}

type refNI struct {
	queue      []Flit
	reassembly *Packet
}

type refFifo struct {
	slots []Flit
	head  int
	n     int
}

func (q *refFifo) full() bool  { return q.n == len(q.slots) }
func (q *refFifo) empty() bool { return q.n == 0 }
func (q *refFifo) front() Flit { return q.slots[q.head] }

func (q *refFifo) push(f Flit) {
	if q.full() {
		panic("noc oracle: push to full fifo")
	}
	q.slots[(q.head+q.n)%len(q.slots)] = f
	q.n++
}

func (q *refFifo) pop() Flit {
	if q.empty() {
		panic("noc oracle: pop from empty fifo")
	}
	f := q.slots[q.head]
	q.slots[q.head] = Flit{}
	q.head = (q.head + 1) % len(q.slots)
	q.n--
	return f
}

type refInPort struct {
	buf     refFifo
	route   Dir
	holding bool
}

type refOutPort struct {
	flit  Flit
	valid bool
	owner Dir
	owned bool
	rr    Dir
}

type refRouter struct {
	pos int
	in  [numDirs]refInPort
	out [numDirs]refOutPort
}

func (r *refRouter) arbitrate(o Dir, request func(in Dir) bool) (Dir, bool) {
	op := &r.out[o]
	if op.owned {
		if request(op.owner) {
			return op.owner, true
		}
		return 0, false
	}
	for k := 1; k <= int(numDirs); k++ {
		cand := Dir((int(op.rr) + k) % int(numDirs))
		if request(cand) {
			op.rr = cand
			return cand, true
		}
	}
	return 0, false
}

func newRefNetwork(g geom.Grid, cfg Config) *refNetwork {
	cfg = cfg.withDefaults()
	n := &refNetwork{
		Grid:    g,
		Cfg:     cfg,
		routers: make([]refRouter, g.N()),
		nis:     make([]refNI, g.N()),
		Act:     power.NewActivity(g.N()),
	}
	for i := range n.routers {
		n.routers[i].pos = i
		for d := Dir(0); d < numDirs; d++ {
			n.routers[i].in[d].buf = refFifo{slots: make([]Flit, cfg.BufDepth)}
		}
	}
	return n
}

func (n *refNetwork) Send(pkt *Packet) {
	q := &n.nis[n.Grid.Index(pkt.Src)]
	pkt.InjectCycle = n.Cycle
	for s := 0; s < pkt.NFlits; s++ {
		q.queue = append(q.queue, Flit{Pkt: pkt, Seq: s})
	}
	n.Stats.PacketsSent++
	n.Stats.FlitsInjected += int64(pkt.NFlits)
	n.inflight += int64(pkt.NFlits)
}

func (n *refNetwork) Busy() bool { return n.inflight > 0 }

func (n *refNetwork) Step() {
	n.eject()
	n.linkTraversal()
	n.switchAllocTraversal()
	n.inject()
	n.Cycle++
	n.Stats.Cycles++
}

func (n *refNetwork) eject() {
	for i := range n.routers {
		op := &n.routers[i].out[Local]
		if !op.valid {
			continue
		}
		f := op.flit
		op.valid = false
		n.inflight--
		sink := &n.nis[i]
		if f.IsHead() {
			if sink.reassembly != nil {
				panic("noc oracle: interleaved worms at ejection")
			}
			sink.reassembly = f.Pkt
		} else if sink.reassembly != f.Pkt {
			panic("noc oracle: body flit of a foreign worm at ejection")
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
				n.Deliver(pkt)
			}
		}
	}
}

func (n *refNetwork) linkTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		for d := North; d < numDirs; d++ {
			op := &r.out[d]
			if !op.valid {
				continue
			}
			nb := &n.routers[n.Grid.Index(n.Grid.Coord(i).Add(d.offset()))]
			in := &nb.in[d.Opposite()]
			if in.buf.full() {
				continue
			}
			in.buf.push(op.flit)
			op.valid = false
			n.Act.Link[i]++
			n.Act.BufWrites[nb.pos]++
		}
	}
}

func (n *refNetwork) switchAllocTraversal() {
	for i := range n.routers {
		r := &n.routers[i]
		cur := n.Grid.Coord(i)
		for o := Dir(0); o < numDirs; o++ {
			op := &r.out[o]
			if op.valid {
				continue
			}
			req := func(in Dir) bool {
				ip := &r.in[in]
				if ip.buf.empty() {
					return false
				}
				f := ip.buf.front()
				if ip.holding {
					return ip.route == o
				}
				if !f.IsHead() {
					panic("noc oracle: body flit at port head without route state")
				}
				return routeXY(cur, f.Pkt.Dst) == o
			}
			winner, ok := r.arbitrate(o, req)
			if !ok {
				continue
			}
			n.Act.Arb[i]++
			ip := &r.in[winner]
			f := ip.buf.pop()
			n.Act.BufReads[i]++
			n.Act.Xbar[i]++
			op.flit = f
			op.valid = true
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
		}
	}
}

func (n *refNetwork) inject() {
	for i := range n.routers {
		q := &n.nis[i]
		if len(q.queue) == 0 {
			q.queue = nil
			continue
		}
		buf := &n.routers[i].in[Local].buf
		if !buf.full() {
			buf.push(q.queue[0])
			n.Act.BufWrites[i]++
			q.queue = q.queue[1:]
		}
	}
}

// diffTraffic drives the optimized kernel and the oracle with the same
// seeded traffic for cycles cycles, then drains both, failing at the
// first cycle where Cycle, Stats, Busy or any activity counter differs,
// and checks that both kernels delivered the same packets in the same
// order at the same cycles.
func diffTraffic(t *testing.T, g geom.Grid, cfg Config, pattern Pattern, rate float64, cycles int, seed int64) {
	t.Helper()
	net, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefNetwork(g, cfg)
	var got, want []uint64
	net.Deliver = func(p *Packet) { got = append(got, p.ID) }
	ref.Deliver = func(p *Packet) { want = append(want, p.ID) }

	rng := rand.New(rand.NewSource(seed))
	var pkts, refPkts []*Packet
	check := func() {
		t.Helper()
		if net.Cycle != ref.Cycle || net.Stats != ref.Stats || net.Busy() != ref.Busy() {
			t.Fatalf("cycle %d: kernel cycle=%d stats=%+v busy=%v, oracle cycle=%d stats=%+v busy=%v",
				ref.Cycle, net.Cycle, net.Stats, net.Busy(), ref.Cycle, ref.Stats, ref.Busy())
		}
		if !reflect.DeepEqual(net.Act, ref.Act) {
			t.Fatalf("cycle %d: activity differs:\nkernel %+v\noracle %+v", ref.Cycle, *net.Act, *ref.Act)
		}
	}
	for c := 0; c < cycles; c++ {
		for _, src := range g.Coords() {
			if rng.Float64() >= rate {
				continue
			}
			dst, ok := pattern(rng, g, src)
			if !ok {
				continue
			}
			nflits := 1 + rng.Intn(6)
			id := uint64(len(pkts) + 1)
			p := &Packet{ID: id, Src: src, Dst: dst, NFlits: nflits}
			q := &Packet{ID: id, Src: src, Dst: dst, NFlits: nflits}
			if err := net.Send(p); err != nil {
				t.Fatal(err)
			}
			ref.Send(q)
			pkts, refPkts = append(pkts, p), append(refPkts, q)
		}
		net.Step()
		ref.Step()
		check()
	}
	for guard := 0; ref.Busy(); guard++ {
		if guard > 1_000_000 {
			t.Fatal("oracle did not drain")
		}
		net.Step()
		ref.Step()
		check()
	}
	if !slices.Equal(got, want) {
		t.Fatalf("delivery order differs: kernel %d packets, oracle %d", len(got), len(want))
	}
	for i, p := range pkts {
		if p.InjectCycle != refPkts[i].InjectCycle || p.EjectCycle != refPkts[i].EjectCycle {
			t.Fatalf("packet %d: kernel inject/eject %d/%d, oracle %d/%d",
				p.ID, p.InjectCycle, p.EjectCycle, refPkts[i].InjectCycle, refPkts[i].EjectCycle)
		}
	}
}

// TestKernelMatchesOracle: under seeded uniform-random, transpose and
// hotspot traffic at light to saturating load, the optimized kernel is
// cycle-for-cycle identical to the pre-optimization kernel.
func TestKernelMatchesOracle(t *testing.T) {
	patterns := []struct {
		name string
		p    Pattern
	}{
		{"uniform", UniformRandom},
		{"transpose", Transpose},
		{"hotspot", HotspotPattern(geom.Coord{X: 2, Y: 1}, 0.4)},
	}
	for _, pat := range patterns {
		for _, rate := range []float64{0.02, 0.1, 0.3} {
			for _, depth := range []int{1, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/rate%g/depth%d/seed%d", pat.name, rate, depth, seed)
					t.Run(name, func(t *testing.T) {
						diffTraffic(t, geom.NewGrid(5, 5), Config{BufDepth: depth}, pat.p, rate, 400, seed)
						diffTraffic(t, geom.NewGrid(4, 3), Config{BufDepth: depth}, UniformRandom, rate, 200, seed+100)
					})
				}
			}
		}
	}
}

// TestTailThenHeadSameCycle pins a modelled property of the kernel: when
// a worm's tail leaves an input, the next worm's head behind it in the
// same FIFO may win a later free output in the same cycle, so one input
// forwards two flits in one cycle. Packets A (north) and B (east) queue
// at (1,0) behind a long worm that holds the north output; once the worm
// passes, A takes North and B takes East in the same cycle, so the two
// one-hop packets eject together.
func TestTailThenHeadSameCycle(t *testing.T) {
	for _, kernel := range []string{"kernel", "oracle"} {
		t.Run(kernel, func(t *testing.T) {
			g := geom.NewGrid(3, 3)
			var send func(*Packet)
			var step func()
			var busy func() bool
			if kernel == "kernel" {
				n := newNet(t, 3, 3)
				send = func(p *Packet) {
					if err := n.Send(p); err != nil {
						t.Fatal(err)
					}
				}
				step, busy = n.Step, n.Busy
			} else {
				n := newRefNetwork(g, Config{})
				send, step, busy = n.Send, n.Step, n.Busy
			}
			worm := &Packet{ID: 1, Src: geom.Coord{X: 0, Y: 0}, Dst: geom.Coord{X: 1, Y: 2}, NFlits: 8}
			a := &Packet{ID: 2, Src: geom.Coord{X: 1, Y: 0}, Dst: geom.Coord{X: 1, Y: 1}, NFlits: 1}
			b := &Packet{ID: 3, Src: geom.Coord{X: 1, Y: 0}, Dst: geom.Coord{X: 2, Y: 0}, NFlits: 1}
			send(worm)
			for c := 0; c < 3; c++ {
				step()
			}
			send(a)
			send(b)
			for c := 0; busy(); c++ {
				if c > 1000 {
					t.Fatal("network did not drain")
				}
				step()
			}
			if a.EjectCycle != b.EjectCycle {
				t.Fatalf("A ejected at %d, B at %d: want the same cycle", a.EjectCycle, b.EjectCycle)
			}
			if a.EjectCycle <= worm.EjectCycle-int64(worm.NFlits) {
				t.Fatalf("A (eject %d) did not wait for the worm (eject %d)", a.EjectCycle, worm.EjectCycle)
			}
		})
	}
}

// TestRunIdleEqualsSteps: Run(k) — which jumps over idle cycles — leaves
// the network exactly as k single Steps do, whether the network starts
// busy, drains partway, or is idle throughout.
func TestRunIdleEqualsSteps(t *testing.T) {
	for _, k := range []int64{0, 1, 7, 50, 500} {
		for _, load := range []int{0, 1, 6} {
			run, step := newNet(t, 4, 4), newNet(t, 4, 4)
			var runPkts, stepPkts []*Packet
			for i := 0; i < load; i++ {
				src := geom.Coord{X: i % 4, Y: 0}
				dst := geom.Coord{X: 3 - i%4, Y: 3}
				p := &Packet{ID: uint64(i + 1), Src: src, Dst: dst, NFlits: 3}
				q := *p
				if err := run.Send(p); err != nil {
					t.Fatal(err)
				}
				if err := step.Send(&q); err != nil {
					t.Fatal(err)
				}
				runPkts, stepPkts = append(runPkts, p), append(stepPkts, &q)
			}
			run.Run(k)
			for i := int64(0); i < k; i++ {
				step.Step()
			}
			if run.Cycle != step.Cycle || run.Stats != step.Stats || run.Busy() != step.Busy() ||
				!reflect.DeepEqual(run.Act, step.Act) {
				t.Fatalf("k=%d load=%d: Run gives cycle=%d stats=%+v, Steps give cycle=%d stats=%+v",
					k, load, run.Cycle, run.Stats, step.Cycle, step.Stats)
			}
			for i := range runPkts {
				if runPkts[i].EjectCycle != stepPkts[i].EjectCycle {
					t.Fatalf("k=%d load=%d: packet %d ejects at %d under Run, %d under Steps",
						k, load, i, runPkts[i].EjectCycle, stepPkts[i].EjectCycle)
				}
			}
		}
	}
}

// Opposite returns the port on the neighbouring router that faces d.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Local
	}
}
