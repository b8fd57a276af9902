package sim

import "fmt"

// Stage labels one pipeline event of a sweep: configuration build,
// (configuration, scheme) NoC characterization, or per-point thermal
// evaluation.
type Stage string

const (
	// StageBuildStart / StageBuildDone bracket one configuration's
	// construction. They fire once per (configuration, scale) over a
	// runner's lifetime — a build served from the runner's own memory
	// afterwards emits nothing. The done event's CacheHit reports whether
	// the build was reconstituted from a persisted snapshot (true) or
	// annealed and calibrated cold (false). A failed build leaves its
	// start event unpaired and releases the once-per-key claim, so a
	// successful retry brackets normally.
	StageBuildStart Stage = "build-start"
	StageBuildDone  Stage = "build-done"
	// StageCharacterizeStart fires when a (configuration, scheme) orbit
	// starts simulating on the cycle-accurate NoC. It does not fire for
	// characterizations served from the cross-run cache.
	StageCharacterizeStart Stage = "characterize-start"
	// StageCharacterizeDone fires when a characterization becomes
	// available, whether computed (CacheHit false) or served from the
	// in-memory/disk cache (CacheHit true).
	StageCharacterizeDone Stage = "characterize-done"
	// StageEvaluateDone fires after each grid point's thermal evaluation,
	// with Point set to the point's index in the sweep grid.
	StageEvaluateDone Stage = "evaluate-done"
)

// Event is one progress notification from a running sweep. Events are
// delivered in pipeline order for any single grid point, but points
// progress concurrently, so a consumer sees stages of different points
// interleaved. The runner serializes delivery: the callback is never
// invoked concurrently and needs no locking of its own.
type Event struct {
	Stage Stage
	// Config and Scale identify the build; Scheme is empty for build
	// events.
	Config string
	Scale  int
	Scheme string
	// Point is the grid-point index for StageEvaluateDone, -1 otherwise.
	Point int
	// Blocks is the point's migration period for StageEvaluateDone on a
	// periodic point; zero for reactive points.
	Blocks int
	// Kind is the point's experiment kind ("periodic" or "reactive") for
	// StageEvaluateDone; empty otherwise.
	Kind string
	// CacheHit reports, on StageCharacterizeDone, that the orbit was
	// served from the cross-run characterization cache (memory or disk)
	// and the NoC stage was skipped — and, on StageBuildDone, that the
	// build was reconstituted from a persisted snapshot and the annealing
	// and calibration stages were skipped.
	CacheHit bool
}

// String renders the event as a one-line log entry.
//
//hotnoc:allow deadexport fmt.Stringer, reached through fmt.Fprintln in the CLIs' -progress logs
func (e Event) String() string {
	switch e.Stage {
	case StageBuildStart:
		return fmt.Sprintf("%s config %s scale %d", e.Stage, e.Config, e.Scale)
	case StageBuildDone:
		how := "built"
		if e.CacheHit {
			how = "cache hit"
		}
		return fmt.Sprintf("%s config %s scale %d (%s)", e.Stage, e.Config, e.Scale, how)
	case StageCharacterizeStart:
		return fmt.Sprintf("%s config %s scheme %s", e.Stage, e.Config, e.Scheme)
	case StageCharacterizeDone:
		hit := "computed"
		if e.CacheHit {
			hit = "cache hit"
		}
		return fmt.Sprintf("%s config %s scheme %s (%s)", e.Stage, e.Config, e.Scheme, hit)
	case StageEvaluateDone:
		return fmt.Sprintf("%s point %d config %s scheme %s blocks %d",
			e.Stage, e.Point, e.Config, e.Scheme, e.Blocks)
	}
	return string(e.Stage)
}
