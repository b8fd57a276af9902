package hotnoc

import "hotnoc/internal/sim"

// Re-exported sweep types, so downstream users need only this package.
type (
	// SweepPoint is one cell of an experiment grid: a tagged union of a
	// periodic experiment (configuration, migration scheme, period in
	// blocks, energy ablation flag) and a reactive one (configuration,
	// scheme, threshold parameters). A literal without reactive parameters
	// is periodic, so pre-existing grids keep their meaning; use
	// PeriodicPoint and ReactivePoint to build the two arms explicitly.
	SweepPoint = sim.Point
	// PointKind discriminates a SweepPoint's experiment; see KindPeriodic
	// and KindReactive.
	PointKind = sim.Kind
	// SweepOutcome pairs a grid point with its calibrated build and the
	// result arm matching its kind: Result for periodic points, Reactive
	// for reactive ones.
	SweepOutcome = sim.Outcome
)

// The two experiment kinds a SweepPoint can run.
const (
	// KindPeriodic is the paper's fixed-period migration policy.
	KindPeriodic = sim.KindPeriodic
	// KindReactive is the threshold-triggered (sensor-driven) policy.
	KindReactive = sim.KindReactive
)

// PeriodicPoint returns a periodic grid point: config under scheme,
// migrating every blocks decoded blocks.
func PeriodicPoint(config string, scheme Scheme, blocks int) SweepPoint {
	return sim.Periodic(config, scheme, blocks)
}

// ReactivePoint returns a reactive grid point: config under cfg's
// threshold-triggered policy (the point's scheme is cfg.Scheme). Reactive
// points mix freely with periodic ones in a single Sweep, sharing NoC
// characterizations per (config, scheme).
func ReactivePoint(config string, cfg ReactiveConfig) SweepPoint {
	return sim.Reactive(config, cfg)
}

// ReactiveGrid returns one reactive point per threshold configuration on
// one chip configuration, in input order — the grid Lab.Reactive and
// remote clients sweep.
func ReactiveGrid(config string, cfgs []ReactiveConfig) []SweepPoint {
	return sim.ReactiveGrid(config, cfgs)
}

// ValidateSweep fails fast on a malformed grid, naming the first bad
// point — the same check sim.Runner applies at the head of every sweep
// and the hotnocd daemon applies at submission time.
func ValidateSweep(pts []SweepPoint) error { return sim.ValidatePoints(pts) }

// SweepGrid builds the cross product configs × schemes × blocks in
// configuration-major order. Nil blocks means the one-block base period.
func SweepGrid(configs []string, schemes []Scheme, blocks []int) []SweepPoint {
	return sim.Grid(configs, schemes, blocks)
}
