package appmap

import (
	"fmt"
	"sort"

	"hotnoc/internal/ldpc"
	"hotnoc/internal/noc"
)

// MsgBatch is the payload of one inter-PE packet: a batch of edge messages
// produced by one PE for one destination PE in one decoder phase.
type MsgBatch struct {
	// Phase is 0 for check-to-variable messages, 1 for variable-to-check.
	Phase uint8
	Vals  []EdgeVal
}

// EdgeVal is one message: the Tanner-graph edge (check-major index) and
// the fixed-point value.
type EdgeVal struct {
	Edge int32
	Val  ldpc.LLR
}

// Engine executes distributed min-sum decoding on the cycle-accurate NoC.
// Each logical PE owns the variables and checks its partition assigns; in
// every half-iteration a PE computes its outgoing edge messages (charging
// compute cycles and PE-op energy), then ships messages for remote PEs as
// wormhole packets batched per destination. A half-iteration ends when
// every PE has received all messages it is due — the barrier that makes the
// distributed decode bit-exact with the reference flooding decoder.
type Engine struct {
	Code *ldpc.Code
	Part *Partition
	Net  *noc.Network

	// MaxIter is the fixed iteration count per block (default 16); fixed
	// iterations give the deterministic block time the paper's migration
	// periods are synchronized to.
	MaxIter int
	// NormNum/NormDen is the min-sum normalization (default 3/4).
	NormNum, NormDen int
	// MsgsPerFlit packs fixed-point messages into 64-bit flits (default 8:
	// 8-bit message plus 16-bit edge tag each... 8 messages with tag
	// compression; the flit count only shapes network load).
	MsgsPerFlit int
	// CyclesPerOp is the PE cost of one edge-message computation
	// (default 1).
	CyclesPerOp int
	// PhaseOverhead is the fixed PE pipeline ramp per half-iteration
	// (default 8 cycles).
	PhaseOverhead int

	// Decodes counts completed Decode calls — the unit of expensive NoC
	// characterization work, which sweep tests and benchmarks use to
	// verify that period and ablation variants reuse one characterization
	// instead of re-simulating.
	Decodes uint64

	place []int // logical PE -> physical block index

	// tab holds the static tables derived from the code and partition;
	// clones share it read-only.
	tab *tables
	// st is the per-block decode state, allocated by the first Decode.
	st *decodeState

	pendingRemote int
}

// tables is everything about a decode that depends only on the code and
// the partition: per-PE node ownership, edge indexing and the send plan
// of both half-iterations.
type tables struct {
	checksOwned [][]int
	varsOwned   [][]int
	// checkEdge[c] is the first check-major edge index of check c.
	checkEdge []int
	varEdges  [][]int
	// maxDeg is the largest node degree, the size of the update scratch.
	maxDeg int
	// plan[0] is the check phase, plan[1] the variable phase.
	plan [2]phasePlan
}

// phasePlan is the static send pattern of one half-iteration: which
// messages each PE ships to which PE, in what batches.
type phasePlan struct {
	// ops[p] counts the edge-message computations of PE p.
	ops []int
	// batches lists every PE's outgoing batches, PE-major and by
	// destination PE within a PE; first[p]:first[p+1] are PE p's.
	batches []batchPlan
	first   []int
	// slot[id] is the message slot of edge id's outgoing message, or -1
	// when the message stays inside its PE; edge[k] is the tag of slot
	// k, and each batch owns a contiguous run of slots.
	slot []int32
	edge []int32
}

// batchPlan is one batch of a phase plan: the messages in slots
// [lo, hi) go to logical PE dst.
type batchPlan struct {
	dst, lo, hi int
}

// decodeState is an engine's mutable per-block state: edge messages and
// the reusable message slots, batches, packets and scratch of the phase
// loop.
type decodeState struct {
	v2c, c2v []ldpc.LLR
	totals   []int32
	// vals[ph] are the message slots of phase ph; batches[ph][b].Vals
	// and pkts[ph][b] are batch b's view of them and its packet.
	vals    [2][]EdgeVal
	batches [2][]MsgBatch
	pkts    [2][]noc.Packet
	sends   []pendingPkt
	in, out []ldpc.LLR
}

// NewEngine wires a code, partition and network together. The partition's
// logical PE count must equal the mesh size; the initial placement is the
// identity.
func NewEngine(code *ldpc.Code, part *Partition, net *noc.Network) (*Engine, error) {
	if err := part.Validate(code); err != nil {
		return nil, err
	}
	if part.NPE != net.Grid.N() {
		return nil, fmt.Errorf("appmap: partition has %d PEs for a %d-node mesh",
			part.NPE, net.Grid.N())
	}
	e := &Engine{
		Code:          code,
		Part:          part,
		Net:           net,
		MaxIter:       16,
		NormNum:       3,
		NormDen:       4,
		MsgsPerFlit:   8,
		CyclesPerOp:   1,
		PhaseOverhead: 8,
		tab:           newTables(code, part),
	}
	e.place = identity(part.NPE)
	return e, nil
}

// Clone returns an engine over net that behaves exactly like
// NewEngine(e.Code, e.Part, net) with e's parameters copied: identity
// placement and no decode state yet. It shares e's static tables instead
// of rebuilding them, so cloning costs almost nothing until the clone
// first decodes.
func (e *Engine) Clone(net *noc.Network) (*Engine, error) {
	if e.Part.NPE != net.Grid.N() {
		return nil, fmt.Errorf("appmap: partition has %d PEs for a %d-node mesh",
			e.Part.NPE, net.Grid.N())
	}
	return &Engine{
		Code:          e.Code,
		Part:          e.Part,
		Net:           net,
		MaxIter:       e.MaxIter,
		NormNum:       e.NormNum,
		NormDen:       e.NormDen,
		MsgsPerFlit:   e.MsgsPerFlit,
		CyclesPerOp:   e.CyclesPerOp,
		PhaseOverhead: e.PhaseOverhead,
		place:         identity(e.Part.NPE),
		tab:           e.tab,
	}, nil
}

func identity(n int) []int {
	place := make([]int, n)
	for i := range place {
		place[i] = i
	}
	return place
}

// newTables derives the static tables of a code and partition.
func newTables(code *ldpc.Code, part *Partition) *tables {
	t := &tables{
		checksOwned: make([][]int, part.NPE),
		varsOwned:   make([][]int, part.NPE),
		checkEdge:   make([]int, code.M+1),
		varEdges:    make([][]int, code.N),
	}
	for c, pe := range part.CheckPE {
		t.checksOwned[pe] = append(t.checksOwned[pe], c)
	}
	for v, pe := range part.VarPE {
		t.varsOwned[pe] = append(t.varsOwned[pe], v)
	}
	for c := 0; c < code.M; c++ {
		t.checkEdge[c+1] = t.checkEdge[c] + len(code.CheckNbrs[c])
		t.maxDeg = max(t.maxDeg, len(code.CheckNbrs[c]))
	}
	for c := 0; c < code.M; c++ {
		for i, v := range code.CheckNbrs[c] {
			t.varEdges[v] = append(t.varEdges[v], t.checkEdge[c]+i)
		}
	}
	for _, ids := range t.varEdges {
		t.maxDeg = max(t.maxDeg, len(ids))
	}

	edges := code.Edges()
	// toDst[d] collects the edges PE p sends to PE d, in computation
	// order, while p's batches are planned.
	toDst := make([][]int32, part.NPE)
	for ph := range t.plan {
		pl := &t.plan[ph]
		pl.ops = make([]int, part.NPE)
		pl.first = make([]int, part.NPE+1)
		pl.slot = make([]int32, edges)
		route := func(p, id, dst int) {
			pl.ops[p]++
			if dst == p {
				pl.slot[id] = -1
				return
			}
			toDst[dst] = append(toDst[dst], int32(id))
		}
		for p := 0; p < part.NPE; p++ {
			if ph == 0 {
				for _, c := range t.checksOwned[p] {
					for i, v := range code.CheckNbrs[c] {
						route(p, t.checkEdge[c]+i, part.VarPE[v])
					}
				}
			} else {
				for _, v := range t.varsOwned[p] {
					for _, id := range t.varEdges[v] {
						route(p, id, part.CheckPE[checkOfEdge(t.checkEdge, id)])
					}
				}
			}
			for d, ids := range toDst {
				if len(ids) == 0 {
					continue
				}
				lo := len(pl.edge)
				for _, id := range ids {
					pl.slot[id] = int32(len(pl.edge))
					pl.edge = append(pl.edge, id)
				}
				pl.batches = append(pl.batches, batchPlan{dst: d, lo: lo, hi: len(pl.edge)})
				toDst[d] = ids[:0]
			}
			pl.first[p+1] = len(pl.batches)
		}
	}
	return t
}

// newDecodeState allocates an engine's decode state over its tables.
func newDecodeState(code *ldpc.Code, t *tables) *decodeState {
	edges := code.Edges()
	st := &decodeState{
		v2c:    make([]ldpc.LLR, edges),
		c2v:    make([]ldpc.LLR, edges),
		totals: make([]int32, code.N),
		in:     make([]ldpc.LLR, t.maxDeg),
		out:    make([]ldpc.LLR, t.maxDeg),
	}
	for ph := range t.plan {
		pl := &t.plan[ph]
		vals := make([]EdgeVal, len(pl.edge))
		for k, id := range pl.edge {
			vals[k].Edge = id
		}
		st.vals[ph] = vals
		st.batches[ph] = make([]MsgBatch, len(pl.batches))
		for b, bp := range pl.batches {
			st.batches[ph][b] = MsgBatch{Phase: uint8(ph), Vals: vals[bp.lo:bp.hi:bp.hi]}
		}
		st.pkts[ph] = make([]noc.Packet, len(pl.batches))
	}
	return st
}

// SetPlacement installs a new logical-to-physical mapping (a migration).
// It returns an error unless place is a bijection onto the mesh.
func (e *Engine) SetPlacement(place []int) error {
	if len(place) != e.Part.NPE {
		return fmt.Errorf("appmap: placement has %d entries for %d PEs", len(place), e.Part.NPE)
	}
	seen := make([]bool, len(place))
	for _, b := range place {
		if b < 0 || b >= len(place) || seen[b] {
			return fmt.Errorf("appmap: placement is not a bijection")
		}
		seen[b] = true
	}
	copy(e.place, place)
	return nil
}

// BlockResult summarises one decoded block.
type BlockResult struct {
	Decisions []uint8
	// Cycles is the block decode duration in clock cycles (deterministic
	// for a fixed placement).
	Cycles int64
	// Converged reports whether the syndrome is satisfied.
	Converged bool
	// Iterations actually executed (== MaxIter unless early stop is added).
	Iterations int
}

// pendingPkt is a packet waiting for its PE to finish computing.
type pendingPkt struct {
	at  int64
	pkt *noc.Packet
}

// Decode runs one block through the distributed decoder, driving the
// network cycle-by-cycle. Channel LLRs are assumed pre-loaded into the PEs
// (codeword I/O is modelled as PE-local work).
func (e *Engine) Decode(chLLR []ldpc.LLR) (BlockResult, error) {
	code := e.Code
	if len(chLLR) != code.N {
		return BlockResult{}, fmt.Errorf("appmap: block has %d LLRs, code N=%d", len(chLLR), code.N)
	}
	if e.st == nil {
		e.st = newDecodeState(code, e.tab)
	}
	st := e.st
	start := e.Net.Cycle

	prevDeliver := e.Net.Deliver
	defer func() { e.Net.Deliver = prevDeliver }()
	e.Net.Deliver = e.onDeliver

	// Load phase: PEs latch channel LLRs into their variable-node units.
	for v := 0; v < code.N; v++ {
		for _, id := range e.tab.varEdges[v] {
			st.v2c[id] = chLLR[v]
		}
	}
	loadMax := int64(0)
	for p := 0; p < e.Part.NPE; p++ {
		ops := int64(len(e.tab.varsOwned[p]))
		e.Net.Act.PEOps[e.place[p]] += uint64(ops)
		if t := ops * int64(e.CyclesPerOp); t > loadMax {
			loadMax = t
		}
	}
	e.Net.Run(loadMax)

	for it := 0; it < e.MaxIter; it++ {
		if err := e.runPhase(0, chLLR); err != nil {
			return BlockResult{}, err
		}
		if err := e.runPhase(1, chLLR); err != nil {
			return BlockResult{}, err
		}
	}

	decisions := make([]uint8, code.N)
	for v, tot := range st.totals {
		if tot < 0 {
			decisions[v] = 1
		}
	}
	e.Decodes++
	return BlockResult{
		Decisions:  decisions,
		Cycles:     e.Net.Cycle - start,
		Converged:  code.CheckSyndrome(decisions),
		Iterations: e.MaxIter,
	}, nil
}

// runPhase executes one half-iteration: phase 0 updates check nodes, phase
// 1 variable nodes.
func (e *Engine) runPhase(phase uint8, chLLR []ldpc.LLR) error {
	t, st, net := e.tab, e.st, e.Net
	pl := &t.plan[phase]
	vals := st.vals[phase]
	phaseStart := net.Cycle
	sends := st.sends[:0]
	maxReady := phaseStart

	for p := 0; p < e.Part.NPE; p++ {
		if phase == 0 {
			for _, c := range t.checksOwned[p] {
				lo, hi := t.checkEdge[c], t.checkEdge[c+1]
				out := st.out[:hi-lo]
				ldpc.CheckNodeUpdate(st.v2c[lo:hi], out, e.NormNum, e.NormDen)
				for i, m := range out {
					if k := pl.slot[lo+i]; k < 0 {
						st.c2v[lo+i] = m
					} else {
						vals[k].Val = m
					}
				}
			}
		} else {
			for _, v := range t.varsOwned[p] {
				ids := t.varEdges[v]
				in, out := st.in[:len(ids)], st.out[:len(ids)]
				for i, id := range ids {
					in[i] = st.c2v[id]
				}
				st.totals[v] = ldpc.VarNodeUpdate(chLLR[v], in, out)
				for i, id := range ids {
					if k := pl.slot[id]; k < 0 {
						st.v2c[id] = out[i]
					} else {
						vals[k].Val = out[i]
					}
				}
			}
		}

		ops := pl.ops[p]
		net.Act.PEOps[e.place[p]] += uint64(ops)
		ready := phaseStart + int64(ops*e.CyclesPerOp+e.PhaseOverhead)
		if ready > maxReady {
			maxReady = ready
		}

		// Deterministic send order by destination PE.
		for b := pl.first[p]; b < pl.first[p+1]; b++ {
			bp := pl.batches[b]
			pkt := &st.pkts[phase][b]
			*pkt = noc.Packet{
				ID:      net.NextID(),
				Src:     net.Grid.Coord(e.place[p]),
				Dst:     net.Grid.Coord(e.place[bp.dst]),
				NFlits:  1 + (bp.hi-bp.lo+e.MsgsPerFlit-1)/e.MsgsPerFlit,
				Payload: &st.batches[phase][b],
			}
			sends = append(sends, pendingPkt{at: ready, pkt: pkt})
		}
	}

	// A PE's batches tie on at, and sort.Slice is not stable: the send
	// order (and with it every simulated cycle) depends on this exact
	// call over this exact input order.
	sort.Slice(sends, func(i, j int) bool { return sends[i].at < sends[j].at })
	st.sends = sends
	e.pendingRemote = len(sends)

	// Event loop: inject packets as their PEs finish computing; run until
	// every remote batch has been delivered and all compute time has
	// elapsed. While nothing is in flight, jump straight to the next send
	// (or to the end of compute): the skipped cycles would be idle.
	idx := 0
	guard := phaseStart + 10_000_000
	for e.pendingRemote > 0 || idx < len(sends) || net.Cycle < maxReady {
		for idx < len(sends) && sends[idx].at <= net.Cycle {
			if err := net.Send(sends[idx].pkt); err != nil {
				return fmt.Errorf("appmap: phase %d injection failed: %w", phase, err)
			}
			idx++
		}
		next := net.Cycle + 1
		if !net.Busy() {
			next = maxReady
			if idx < len(sends) {
				next = sends[idx].at
			}
			next = max(min(next, guard+1), net.Cycle+1)
		}
		net.Run(next - net.Cycle)
		if net.Cycle > guard {
			return fmt.Errorf("appmap: phase %d did not complete within guard window", phase)
		}
	}
	return nil
}

// onDeliver applies a received message batch to the edge state.
func (e *Engine) onDeliver(pkt *noc.Packet) {
	b, ok := pkt.Payload.(*MsgBatch)
	if !ok {
		return // foreign packet (e.g. migration traffic); not ours
	}
	dst := e.st.v2c
	if b.Phase == 0 {
		dst = e.st.c2v
	}
	for _, ev := range b.Vals {
		dst[ev.Edge] = ev.Val
	}
	e.pendingRemote--
}

// checkOfEdge locates the check owning a check-major edge index by binary
// search over the prefix array.
func checkOfEdge(checkEdge []int, id int) int {
	lo, hi := 0, len(checkEdge)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if checkEdge[mid+1] <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
