package core

import (
	"fmt"
	"math"

	"hotnoc/internal/thermal"
)

// ReactiveConfig configures threshold-triggered migration, the natural
// extension of the paper's fixed-period policy: on-die thermal sensors are
// sampled at every block boundary and the plane migrates only when the
// hottest sensor exceeds TriggerC. Between triggers the chip runs at full
// throughput, so a well-chosen threshold buys back most of the periodic
// policy's penalty while still capping the peak.
type ReactiveConfig struct {
	// Scheme supplies the transform applied at each triggered migration.
	Scheme Scheme
	// TriggerC is the sensor threshold in °C.
	TriggerC float64
	// SimBlocks is the simulation horizon in decoded blocks (default
	// 2048). The horizon must span several die thermal time constants
	// (~10 ms) for the controller to reach its operating regime.
	SimBlocks int
	// WarmupBlocks excludes the initial heat-up/settling transient from
	// the reported statistics (default SimBlocks/2); the full sensor
	// timeline is still returned in BlockPeaks.
	WarmupBlocks int
	// SensorQuantC is the sensor resolution; readings are floored to this
	// LSB as a real thermal diode's output would be (default 0.25 °C).
	SensorQuantC float64
	// Dt is the thermal integrator step (default 5 µs).
	Dt float64
	// PeaksEvery downsamples the BlockPeaks timeline: the sensor reading
	// is recorded at every PeaksEvery-th block boundary (blocks 0, k, 2k,
	// ...). 0 or 1 records every boundary (the default); a negative value
	// omits the timeline entirely. High-horizon remote sweeps use it to
	// stop shipping one float per block over the wire. Only the reported
	// timeline thins — the trigger decision still samples every boundary,
	// so the policy outcome is unchanged.
	PeaksEvery int
}

// Normalized returns the config with defaults applied and the warmup
// clamped — the exact values EvaluateReactive runs with. Reporting
// layers use it so displayed horizons and warmups match what actually
// ran instead of re-deriving the defaulting rules.
func (c ReactiveConfig) Normalized() ReactiveConfig {
	c.setDefaults()
	return c
}

func (c *ReactiveConfig) setDefaults() {
	if c.SimBlocks <= 0 {
		c.SimBlocks = 2048
	}
	if c.WarmupBlocks <= 0 {
		c.WarmupBlocks = c.SimBlocks / 2
	}
	if c.WarmupBlocks >= c.SimBlocks {
		c.WarmupBlocks = c.SimBlocks - 1
	}
	if c.SensorQuantC <= 0 {
		c.SensorQuantC = 0.25
	}
	if c.Dt <= 0 {
		c.Dt = 5e-6
	}
	if c.PeaksEvery == 0 {
		c.PeaksEvery = 1
	}
}

// ReactiveResult summarises a reactive run. Scalar statistics cover the
// post-warmup window, i.e. the controller's operating regime rather than
// the initial heat-up transient.
type ReactiveResult struct {
	// PeakC is the hottest die temperature after warmup.
	PeakC float64
	// MeanC is the time-averaged die temperature after warmup.
	MeanC float64
	// Migrations counts triggered reconfigurations after warmup.
	Migrations int
	// ThroughputPenalty is post-warmup migration downtime over total time.
	ThroughputPenalty float64
	// BlockPeaks records the sensor peak at block boundaries of the whole
	// horizon (including warmup), a timeline of the control behaviour.
	// By default every boundary is recorded; ReactiveConfig.PeaksEvery
	// downsamples or omits the timeline.
	BlockPeaks []float64
}

// EvaluateReactive runs the threshold policy against an existing
// characterization: the thermal state is integrated transiently from the
// static placement's warm steady state, and at every block boundary the
// quantized sensor peak decides whether the next orbit step executes. No
// NoC simulation happens here — the orbit's per-leg activity comes from
// ch, so many reactive evaluations (different triggers, quantisations,
// horizons) amortise one Characterize.
func (s *System) EvaluateReactive(ch *Characterization, cfg ReactiveConfig) (ReactiveResult, error) {
	if err := s.Validate(); err != nil {
		return ReactiveResult{}, err
	}
	if ch == nil || len(ch.Legs) == 0 {
		return ReactiveResult{}, fmt.Errorf("core: empty characterization")
	}
	if cfg.Scheme.StepFn == nil {
		return ReactiveResult{}, fmt.Errorf("core: no migration scheme configured")
	}
	if cfg.Scheme.Name != ch.SchemeName {
		return ReactiveResult{}, fmt.Errorf("core: reactive config selects scheme %q but characterization is for %q",
			cfg.Scheme.Name, ch.SchemeName)
	}
	cfg.setDefaults()
	g := s.Grid
	orbit := len(ch.Legs)

	// Convert each characterized leg into the controller's power-map view:
	// average decode power over the decode window, and migration power over
	// the migration window plus the idle-clock power the halted PEs keep
	// burning. The arithmetic mirrors Activity.PowerMap so the result is
	// bit-identical to measuring the leg live.
	decodePower := make([][]float64, orbit)
	migPower := make([][]float64, orbit)
	for k, la := range ch.Legs {
		decodeDur := float64(la.DecodeCycles) / s.ClockHz
		decodePower[k] = make([]float64, g.N())
		for i, e := range la.DecodeBlockJ {
			decodePower[k][i] = e / decodeDur
		}
		migDur := float64(la.Migration.Cycles) / s.ClockHz
		migPower[k] = make([]float64, g.N())
		for i, e := range la.MigBlockJ {
			migPower[k][i] = e / migDur
		}
		for i := range migPower[k] {
			migPower[k][i] += s.IdleFrac * decodePower[k][i]
		}
	}

	// Warm-start the thermal state from the static placement's
	// leakage-closed steady state.
	ev, err := s.thermalEvaluator()
	if err != nil {
		return ReactiveResult{}, err
	}
	tr, err := ev.Transient(cfg.Dt)
	if err != nil {
		return ReactiveResult{}, err
	}
	leak := s.Leak.Into
	if err := ev.WarmStart(tr, decodePower[0], leak, 1e-4); err != nil {
		return ReactiveResult{}, fmt.Errorf("core: reactive thermal: %w", err)
	}

	res := ReactiveResult{PeakC: -math.MaxFloat64}
	var meanAcc float64
	var meanN int
	record := func(die []float64) {
		p, _ := thermal.Peak(die)
		if p > res.PeakC {
			res.PeakC = p
		}
		meanAcc += thermal.Mean(die)
		meanN++
	}

	k := 0
	var decodeCycles, migCycles int64
	for blk := 0; blk < cfg.SimBlocks; blk++ {
		recording := blk >= cfg.WarmupBlocks
		var observe func([]float64)
		if recording {
			observe = record
		}
		la := ch.Legs[k]
		ev.Integrate(tr, decodePower[k], float64(la.DecodeCycles)/s.ClockHz, leak, observe)
		if recording {
			decodeCycles += la.DecodeCycles
		}

		sensorPeak, _ := thermal.Peak(tr.T[:g.N()])
		sensorPeak = quantize(sensorPeak, cfg.SensorQuantC)
		if cfg.PeaksEvery > 0 && blk%cfg.PeaksEvery == 0 {
			res.BlockPeaks = append(res.BlockPeaks, sensorPeak)
		}
		if sensorPeak > cfg.TriggerC {
			ev.Integrate(tr, migPower[k], float64(la.Migration.Cycles)/s.ClockHz, leak, observe)
			if recording {
				migCycles += la.Migration.Cycles
				res.Migrations++
			}
			k = (k + 1) % orbit
		}
	}

	res.MeanC = meanAcc / float64(meanN)
	res.ThroughputPenalty = float64(migCycles) / float64(decodeCycles+migCycles)
	return res, nil
}

func quantize(v, lsb float64) float64 { return math.Floor(v/lsb) * lsb }
