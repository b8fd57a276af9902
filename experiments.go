package hotnoc

import (
	"context"
	"fmt"

	"hotnoc/internal/geom"
	"hotnoc/internal/report"
)

// Figure1Cell is one bar of the paper's Figure 1: one migration scheme on
// one circuit configuration.
type Figure1Cell struct {
	Scheme string
	// ReductionC is the peak-temperature reduction versus the static
	// thermally-aware placement (the figure's y-axis).
	ReductionC float64
	// MigratedPeakC and ThroughputPenalty add context beyond the figure.
	MigratedPeakC     float64
	ThroughputPenalty float64
}

// Figure1Row is one circuit configuration's group of bars.
type Figure1Row struct {
	Config string
	// BasePeakC is the configuration's base temperature (x-axis label).
	BasePeakC float64
	Cells     []Figure1Cell
}

// Figure1Result is the full reproduction of Figure 1 plus the §3 scheme
// averages.
type Figure1Result struct {
	Rows []Figure1Row
	// MeanReductionC maps scheme name to its average reduction across the
	// distinct requested configurations (paper: X-Y shift 4.62 °C,
	// rotation 4.15 °C). Duplicate configuration names count once, so a
	// repeated entry cannot skew the average.
	MeanReductionC map[string]float64
}

// Figure1FromOutcomes assembles a Figure1Result from the outcomes of the
// Figure 1 grid — SweepGrid(configs, Schemes(), nil) — in point order.
// It is the aggregation Lab.Figure1 applies locally and remote clients
// apply to outcomes streamed from a hotnocd daemon, so both produce
// identical results from identical outcomes.
//
// Outcomes arrive configuration-major, scheme-minor: one row of
// len(Schemes()) cells per requested configuration (repeats included).
// Duplicate configuration names contribute their own rows but are counted
// once in the per-scheme means, so the §3 averages cannot be skewed by a
// repeated entry.
func Figure1FromOutcomes(configs []string, outs []SweepOutcome) *Figure1Result {
	out := &Figure1Result{MeanReductionC: map[string]float64{}}
	nSchemes := len(Schemes())
	sums := map[string]float64{}
	seen := map[string]bool{}
	distinct := 0
	for ri, name := range configs {
		rowOuts := outs[ri*nSchemes : (ri+1)*nSchemes]
		row := Figure1Row{Config: name, BasePeakC: rowOuts[0].Built.StaticPeakC}
		for _, o := range rowOuts {
			row.Cells = append(row.Cells, Figure1Cell{
				Scheme:            o.Point.Scheme.Name,
				ReductionC:        o.Result.ReductionC,
				MigratedPeakC:     o.Result.MigratedPeakC,
				ThroughputPenalty: o.Result.ThroughputPenalty,
			})
			if !seen[name] {
				sums[o.Point.Scheme.Name] += o.Result.ReductionC
			}
		}
		if !seen[name] {
			seen[name] = true
			distinct++
		}
		out.Rows = append(out.Rows, row)
	}
	for scheme, sum := range sums {
		out.MeanReductionC[scheme] = sum / float64(distinct)
	}
	return out
}

// Table renders the figure as an aligned text table (configurations as
// rows, schemes as columns, reductions in °C).
func (f *Figure1Result) Table() string {
	headers := []string{"Config (base °C)"}
	for _, s := range Schemes() {
		headers = append(headers, s.Name)
	}
	tb := report.NewTable(headers...)
	for _, row := range f.Rows {
		vals := []any{fmt.Sprintf("%s (%.2f)", row.Config, row.BasePeakC)}
		for _, c := range row.Cells {
			vals = append(vals, c.ReductionC)
		}
		tb.AddRow(vals...)
	}
	means := []any{"mean"}
	for _, s := range Schemes() {
		means = append(means, f.MeanReductionC[s.Name])
	}
	tb.AddRow(means...)
	return tb.String()
}

// PeriodPoint is one entry of the paper's migration-period study (§3).
type PeriodPoint struct {
	// Blocks is the migration period in decoded LDPC blocks (the paper's
	// 109.3 / 437.2 / 874.4 µs correspond to 1 / 4 / 8 blocks).
	Blocks int
	// PeriodSec is the measured average period.
	PeriodSec float64
	// ThroughputPenalty is migration downtime over total time.
	ThroughputPenalty float64
	// PeakC is the quasi-steady peak temperature at this period.
	PeakC float64
	// PeakRiseC is the peak increase versus the shortest period studied.
	PeakRiseC float64
}

// PeriodPointsFromOutcomes assembles the migration-period study from the
// outcomes of a single-configuration, single-scheme period grid in point
// order. It is the aggregation Lab.PeriodSweep applies locally and remote
// clients apply to streamed outcomes. PeakRiseC is measured against the
// first (shortest) period of the grid.
func PeriodPointsFromOutcomes(outs []SweepOutcome) []PeriodPoint {
	var out []PeriodPoint
	for _, o := range outs {
		out = append(out, PeriodPoint{
			Blocks:            o.Point.Blocks,
			PeriodSec:         o.Result.PeriodSec,
			ThroughputPenalty: o.Result.ThroughputPenalty,
			PeakC:             o.Result.MigratedPeakC,
		})
	}
	for i := range out {
		out[i].PeakRiseC = out[i].PeakC - out[0].PeakC
	}
	return out
}

// EnergyStudy quantifies one scheme's reconfiguration energy penalty by
// comparing runs with and without migration energy (the ablation behind
// the paper's "+0.3 °C average chip temperature" rotation observation).
type EnergyStudy struct {
	Scheme string
	// MeanWithC / MeanWithoutC are average chip temperatures with and
	// without migration energy; DeltaMeanC is the penalty.
	MeanWithC, MeanWithoutC, DeltaMeanC float64
	// ReductionWithC / ReductionWithoutC are the corresponding peak
	// reductions.
	ReductionWithC, ReductionWithoutC float64
	// MigrationEnergyJ is the per-thermal-cycle migration energy.
	MigrationEnergyJ float64
	// MigrationCycles is the average migration duration in cycles.
	MigrationCycles int64
}

// MigrationEnergyGrid returns the migration-energy ablation grid for one
// configuration: every scheme as a with/without-migration-energy pair, in
// Figure 1 scheme order. Lab.MigrationEnergy and remote clients sweep
// exactly this grid and aggregate it with EnergyStudiesFromOutcomes.
func MigrationEnergyGrid(config string) []SweepPoint {
	var pts []SweepPoint
	for _, s := range Schemes() {
		pts = append(pts,
			SweepPoint{Config: config, Scheme: s},
			SweepPoint{Config: config, Scheme: s, ExcludeMigrationEnergy: true})
	}
	return pts
}

// EnergyStudiesFromOutcomes assembles the migration-energy ablation from
// the outcomes of MigrationEnergyGrid in point order. It is the
// aggregation Lab.MigrationEnergy applies locally and remote clients
// apply to streamed outcomes.
func EnergyStudiesFromOutcomes(outs []SweepOutcome) []EnergyStudy {
	var out []EnergyStudy
	for i := 0; i < len(outs); i += 2 {
		with, without := outs[i].Result, outs[i+1].Result
		var cycles int64
		for _, leg := range with.Legs {
			cycles += leg.Migration.Cycles
		}
		cycles /= int64(len(with.Legs))
		out = append(out, EnergyStudy{
			Scheme:            outs[i].Point.Scheme.Name,
			MeanWithC:         with.MigratedMeanC,
			MeanWithoutC:      without.MigratedMeanC,
			DeltaMeanC:        with.MigratedMeanC - without.MigratedMeanC,
			ReductionWithC:    with.ReductionC,
			ReductionWithoutC: without.ReductionC,
			MigrationEnergyJ:  with.MigrationEnergyJ,
			MigrationCycles:   cycles,
		})
	}
	return out
}

// SweepReactive evaluates threshold-triggered configurations on one chip
// configuration through any Session: validate the configs, sweep
// ReactiveGrid(config, cfgs), extract the results in input order. It is
// the shared implementation behind Lab.Reactive and the client SDK's
// Reactive, so the local and remote paths cannot drift. A scheme is
// acceptable with either a step function (evaluated in process) or a
// name (resolved by a daemon); a config with neither fails fast, naming
// its index.
func SweepReactive(ctx context.Context, s Session, config string, cfgs []ReactiveConfig) ([]ReactiveResult, error) {
	for i, cfg := range cfgs {
		if cfg.Scheme.StepFn == nil && cfg.Scheme.Name == "" {
			return nil, fmt.Errorf("hotnoc: reactive config %d has no migration scheme", i)
		}
	}
	if len(cfgs) == 0 {
		return nil, nil
	}
	outs, err := s.SweepAll(ctx, ReactiveGrid(config, cfgs))
	if err != nil {
		return nil, err
	}
	return ReactiveResultsFromOutcomes(outs)
}

// ReactiveResultsFromOutcomes extracts the reactive results from the
// outcomes of a reactive grid — ReactiveGrid(config, cfgs) — in point
// order. It is the aggregation Lab.Reactive applies locally and remote
// clients apply to outcomes streamed from a hotnocd daemon, so both
// produce identical results from identical outcomes. An outcome without a
// reactive result arm is an error: it means a periodic point slipped into
// the grid, or a version-skewed daemon ran the points as periodic.
func ReactiveResultsFromOutcomes(outs []SweepOutcome) ([]ReactiveResult, error) {
	res := make([]ReactiveResult, len(outs))
	for i, o := range outs {
		if o.Reactive == nil {
			return nil, fmt.Errorf("hotnoc: outcome %d carries no reactive result (point kind %q)",
				i, o.Point.Kind())
		}
		res[i] = *o.Reactive
	}
	return res, nil
}

// Table1 returns the paper's Table 1 as printable rows, alongside the live
// transform definitions for an n x n grid so readers can verify the code
// implements exactly the published functions.
func Table1(n int) string {
	tb := report.NewTable("Function", "New X Coordinate", "New Y Coordinate", "Implementation")
	tb.AddRow("Rotation", "N-1-Y", "X", geom.Rotation(n).String())
	tb.AddRow("X Mirroring", "N-1-X", "Y", geom.XMirror(n).String())
	tb.AddRow("X Translation", "X + Offset", "Y", geom.XTranslate(n, 1).String())
	return tb.String()
}
