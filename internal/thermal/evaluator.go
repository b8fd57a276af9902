package thermal

import (
	"fmt"
	"math"
)

// Evaluator amortises the expensive linear-algebra setup of thermal
// evaluation across many solves on one network: the steady-state LU
// factorisation is computed once, and each backward-Euler iteration matrix
// is factorised once per distinct step size and then reused by every
// subsequent cycle integration. A sweep that evaluates many schedules on
// the same chip pays for factorisation once instead of per evaluation.
//
// Its two integration primitives, WarmStart and Integrate, are the one
// electrothermal loop every evaluation runs: RunCycle's periodic
// schedules and the reactive controller's sensor-driven horizon alike.
//
// An Evaluator (like the Transient and SteadySolver it wraps) holds
// mutable scratch state and must not be shared between goroutines;
// concurrent sweeps give each worker its own Evaluator over the shared,
// read-only Network.
type Evaluator struct {
	nw *Network
	ss *SteadySolver
	// trans caches one integrator per step size. WarmStart overwrites the
	// integrator state before use, so reuse is exact.
	trans map[float64]*Transient
	sc    cycleScratch
}

// cycleScratch holds the per-evaluator buffers that make WarmStart,
// Integrate and RunCycle allocation-free: die-sized power/leak/average
// maps and node-sized ping-pong state vectors.
type cycleScratch struct {
	avg       []float64 // time-averaged power map, NDie
	withLeak  []float64 // warm-start power map with leakage folded in, NDie
	die       []float64 // die-layer temperatures the leakage model reads, NDie
	leak      []float64 // leakage power map, NDie
	power     []float64 // per-step power map, NDie
	state     []float64 // warm-start fixed-point state, NNodes
	stateNext []float64
	prev      []float64 // repetition-start state for convergence checks, NNodes
}

// NewEvaluator factorises the network's steady-state system once and
// returns an evaluator ready to run any number of cycle evaluations.
func NewEvaluator(nw *Network) (*Evaluator, error) {
	ss, err := NewSteadySolver(nw)
	if err != nil {
		return nil, err
	}
	n, nn := nw.NDie, nw.NNodes
	return &Evaluator{nw: nw, ss: ss, trans: map[float64]*Transient{}, sc: cycleScratch{
		avg:       make([]float64, n),
		withLeak:  make([]float64, n),
		die:       make([]float64, n),
		leak:      make([]float64, n),
		power:     make([]float64, n),
		state:     make([]float64, nn),
		stateNext: make([]float64, nn),
		prev:      make([]float64, nn),
	}}, nil
}

// Transient returns the cached integrator for step dt, factorising the
// iteration matrix on first use. The integrator's state persists between
// calls; callers that need a defined starting point must WarmStart, Reset
// or SetState it (RunCycle always warm-starts).
func (ev *Evaluator) Transient(dt float64) (*Transient, error) {
	if tr, ok := ev.trans[dt]; ok {
		return tr, nil
	}
	lu, err := factorStep(ev.nw, dt)
	if err != nil {
		return nil, err
	}
	tr := newTransient(ev.nw, dt, lu)
	ev.trans[dt] = tr
	return tr, nil
}

// WarmStart sets tr's state, at time zero, to the steady state of the
// per-block power map with the leakage feedback closed: when leak is
// non-nil the steady solve is repeated with leak's power for the
// previous solution's die temperatures added, up to 50 times or until
// no node moves by tol or more. The heat-sink time constant (minutes)
// dwarfs any schedule period, so integrating from ambient would take
// millions of steps to warm the package; the quasi-steady regime orbits
// this state instead. A leakage model that diverges at this power level
// is an error, not a non-finite state.
func (ev *Evaluator) WarmStart(tr *Transient, power []float64, leak func(dst, dieTemps []float64), tol float64) error {
	sc := &ev.sc
	state, next := sc.state, sc.stateNext
	ev.ss.SolveFullInto(state, power)
	if leak != nil {
		for it := 0; it < 50; it++ {
			ev.nw.DieTempsInto(sc.die, state)
			leak(sc.leak, sc.die)
			copy(sc.withLeak, power)
			for i, l := range sc.leak {
				sc.withLeak[i] += l
			}
			ev.ss.SolveFullInto(next, sc.withLeak)
			done := vecMaxAbsDiff(next, state) < tol
			state, next = next, state
			if err := checkFinite(state); err != nil {
				return fmt.Errorf("thermal: electrothermal runaway during warm start (leakage diverges at this power level): %w", err)
			}
			if done {
				break
			}
		}
	}
	tr.SetState(state, 0)
	return nil
}

// Integrate advances tr through dur seconds of the constant per-block
// power map, in whole steps of tr's step size (at least one). Before
// every step, leak (when non-nil) adds the leakage power for the current
// die temperatures. After every step, observe (when non-nil) sees the die
// temperatures; the slice aliases tr's state and is only valid during the
// call.
func (ev *Evaluator) Integrate(tr *Transient, power []float64, dur float64, leak func(dst, dieTemps []float64), observe func(dieTemps []float64)) {
	sc := &ev.sc
	die := tr.T[:ev.nw.NDie]
	steps := max(int(math.Round(dur/tr.dt)), 1)
	for range steps {
		copy(sc.power, power)
		if leak != nil {
			ev.nw.DieTempsInto(sc.die, tr.T)
			leak(sc.leak, sc.die)
			for i, l := range sc.leak {
				sc.power[i] += l
			}
		}
		tr.Step(sc.power)
		if observe != nil {
			observe(die)
		}
	}
}
