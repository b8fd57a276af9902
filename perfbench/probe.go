package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"hotnoc"
	"hotnoc/internal/appmap"
	"hotnoc/internal/core"
	"hotnoc/internal/geom"
)

// layers completes a traced run: it derives the per-layer metrics from
// the tracer's registry and spans, and probes each layer once by timing
// direct calls into its public functions on the workload's own build of
// config at scale (lab's cached build). When cyclePts is non-empty the
// run's NoC cycle counts are read from those periodic points, which the
// warm lab serves from its cache.
func (e *env) layers(ctx context.Context, r *run, lab *hotnoc.Lab, config string, scale int, cyclePts ...hotnoc.SweepPoint) error {
	t := e.tr
	label := strconv.Itoa(scale)
	stage := func(name string) float64 {
		return t.gather("hotnoc_stage_seconds_sum", map[string]string{"scale": label, "stage": name})
	}
	m := map[string]metric{
		"sim.stage_build_s":        {stage("build"), "s"},
		"sim.stage_characterize_s": {stage("characterize"), "s"},
		"sim.stage_evaluate_s":     {stage("evaluate"), "s"},
		"sim.decodes":              {t.gather("hotnoc_decodes_total", map[string]string{"scale": label}), "count"},
		"sim.busy_frac":            {t.busyFrac(), "1"},
		"sim.char_hit_ratio":       {t.hitRatio("characterization"), "1"},
		"sim.build_hit_ratio":      {t.hitRatio("build"), "1"},
	}
	if len(cyclePts) > 0 {
		outs, err := lab.SweepAll(ctx, cyclePts)
		if err != nil {
			return err
		}
		r.simCycles, r.charCycles = simCycles(outs)
	}
	m["noc.sim_cycles"] = metric{float64(r.simCycles), "count"}
	m["noc.host_ns_per_cycle"] = metric{1e9 * stage("characterize") / float64(max(r.charCycles, 1)), "ns"}

	built, err := lab.Build(config)
	if err != nil {
		return err
	}
	sp := t.startPhase("probe")
	if err := probeLayers(t, built, m); err != nil {
		return err
	}
	if r.wire == nil {
		if r.wire, err = probeServer(ctx, t); err != nil {
			return err
		}
	}
	t.end(sp)
	for k, v := range r.wire.metrics() {
		m[k] = v
	}
	// A traced run times at least one traced and one untraced request.
	m["trace.overhead_pct"] = metric{100 * (float64(median(r.requests))/float64(median(r.plain)) - 1), "%"}
	r.layers = m
	return nil
}

// timeIt runs fn n times under spans named name and returns the median
// duration.
func timeIt(t *tracer, name, attr string, n int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for range n {
		sp := t.begin(name, attr)
		start := time.Now()
		err := fn()
		ds = append(ds, time.Since(start))
		t.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ds), nil
}

// allocs runs fn and returns the heap allocations and bytes it made.
func allocs(fn func() error) (n, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// probeLayers times one call (or the median of a few) into each
// simulation layer's public functions on b, and adds the results to m.
func probeLayers(t *tracer, b *hotnoc.Built, m map[string]metric) error {
	spec, attr := b.Spec, b.Spec.Name
	scheme := hotnoc.XYShift()

	// chipcfg: a cold Build (assembly, annealing, calibration) against
	// FromData (assembly alone, from the build's snapshot).
	var fresh *hotnoc.Built
	build, err := timeIt(t, "chipcfg.build", attr, 1, func() (err error) {
		fresh, err = spec.Build()
		return err
	})
	if err != nil {
		return err
	}
	assemble, err := timeIt(t, "chipcfg.assemble", attr, 3, func() error {
		_, err := spec.FromData(fresh.Data())
		return err
	})
	if err != nil {
		return err
	}
	m["chipcfg.build_s"] = metric{build.Seconds(), "s"}
	m["chipcfg.assemble_s"] = metric{assemble.Seconds(), "s"}
	m["chipcfg.anneal_calibrate_s"] = metric{(build - assemble).Seconds(), "s"}

	// sim's per-task cost: cloning the calibrated system.
	clone, err := timeIt(t, "core.clone", attr, 5, func() error {
		_, err := b.System.Clone()
		return err
	})
	if err != nil {
		return err
	}
	m["sim.clone_ms"] = metric{ms(clone), "ms"}

	// core: one orbit characterization on a clone.
	sys, err := b.System.Clone()
	if err != nil {
		return err
	}
	var ch *core.Characterization
	char, err := timeIt(t, "core.characterize", attr+"/"+scheme.Name, 1, func() (err error) {
		ch, err = sys.Characterize(scheme)
		return err
	})
	if err != nil {
		return err
	}
	m["core.characterize_s"] = metric{char.Seconds(), "s"}

	// appmap and noc: block decodes at the static placement on a fresh
	// clone, then one migration of the scheme's first step.
	dec, err := b.System.Clone()
	if err != nil {
		return err
	}
	net := dec.Engine.Net
	if err := dec.Engine.SetPlacement(dec.InitialPlace); err != nil {
		return err
	}
	var nAllocs, nBytes uint64
	var blk appmap.BlockResult
	var cycles int64
	decode, err := timeIt(t, "appmap.decode", attr, 3, func() error {
		net.ResetStats()
		var err error
		nAllocs, nBytes, err = allocs(func() (err error) {
			blk, err = dec.Engine.Decode(dec.BlockSource(0))
			return err
		})
		cycles = blk.Cycles
		return err
	})
	if err != nil {
		return err
	}
	m["appmap.decode_ms"] = metric{ms(decode), "ms"}
	m["appmap.allocs_per_decode"] = metric{float64(nAllocs), "count"}
	m["appmap.bytes_per_decode"] = metric{float64(nBytes), "B"}
	m["noc.flits_delivered"] = metric{float64(net.Stats.FlitsDelivered), "count"}
	m["noc.decode_cycles"] = metric{float64(cycles), "count"}

	perm := geom.FromTransform(dec.Grid, scheme.Step(0, dec.Grid))
	var mig core.MigrationStats
	migrate, err := timeIt(t, "core.migrate", attr, 3, func() (err error) {
		mig, err = dec.Migrator.Execute(perm)
		return err
	})
	if err != nil {
		return err
	}
	m["core.migrate_ms"] = metric{ms(migrate), "ms"}
	m["core.migrate_cycles"] = metric{float64(mig.Cycles), "count"}

	// thermal: periodic and reactive evaluation of the characterization.
	cfg := core.EvalConfig{BlocksPerPeriod: 1}
	if _, err := sys.Evaluate(ch, cfg); err != nil { // fills the baseline cache, as a warm Lab has
		return err
	}
	var evalAllocs uint64
	eval, err := timeIt(t, "thermal.evaluate", attr, 5, func() (err error) {
		evalAllocs, _, err = allocs(func() error {
			_, err := sys.Evaluate(ch, cfg)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	m["thermal.evaluate_ms"] = metric{ms(eval), "ms"}
	m["thermal.evaluate_allocs"] = metric{float64(evalAllocs), "count"}
	rcfg := core.ReactiveConfig{Scheme: scheme, TriggerC: spec.BasePeakC - 1, PeaksEvery: -1}
	reactive, err := timeIt(t, "thermal.reactive", attr, 3, func() error {
		_, err := sys.EvaluateReactive(ch, rcfg)
		return err
	})
	if err != nil {
		return err
	}
	m["thermal.reactive_ms"] = metric{ms(reactive), "ms"}
	return nil
}
