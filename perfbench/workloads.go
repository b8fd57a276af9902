package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"hotnoc"
)

// workloads maps each workload's name to the function that runs it.
var workloads = map[string]func(ctx context.Context, e *env) (*run, error){
	"fig1-cold":     runFig1Cold,
	"sweep-warm":    func(ctx context.Context, e *env) (*run, error) { return runWarm(ctx, e, sweepGrid(e.seed)) },
	"reactive-warm": func(ctx context.Context, e *env) (*run, error) { return runWarm(ctx, e, reactiveGrid(e.seed)) },
	"serve-warm":    runServeWarm,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// figureConfigs are the paper's five test-chip configurations.
var figureConfigs = []string{"A", "B", "C", "D", "E"}

// The paper's §3 scheme means of Figure 1, in °C.
const (
	paperXYShiftC = 4.62
	paperRotC     = 4.15
)

// setupReps is how often an untraced run repeats its set-up; setup_s is
// the median. A traced run sets up once, since it reports no setup_s.
const setupReps = 3

func (e *env) setupReps() int {
	if e.tr != nil {
		return 1
	}
	return setupReps
}

// minRequests is the least number of timed requests: a traced run
// alternates traced and untraced requests and needs one of each to
// report its own overhead.
func (e *env) minRequests() int {
	if e.tr != nil {
		return 2
	}
	return 1
}

// tracedRequest reports whether timed request i runs traced.
func (e *env) tracedRequest(i int) bool { return e.tr != nil && i%2 == 0 }

//go:embed reference.json
var referenceJSON []byte

// figureRef pins one scale's cold Figure 1: the SHA-256 of its indented
// JSON (the bytes `figure1 -json` prints), the engine decodes and the
// NoC cycles it simulates.
type figureRef struct {
	SHA256    string `json:"sha256"`
	Decodes   uint64 `json:"decodes"`
	SimCycles int64  `json:"sim_cycles"`
}

func figureRefs() (map[string]figureRef, error) {
	var refs struct {
		Figure1 map[string]figureRef `json:"figure1"`
	}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs.Figure1, nil
}

// figure1Digest is the hex SHA-256 of the Figure 1 result encoded the
// way `figure1 -json` prints it.
func figure1Digest(res *hotnoc.Figure1Result) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// simCycles is the number of NoC cycles a cold Lab simulates to produce
// outs: one calibration decode per configuration built, and per
// (configuration, scheme) orbit characterized the static-placement decode
// plus one decode and one migration per leg. It reads the cycle counts
// the periodic outcomes carry; an orbit is counted once however many of
// its points appear.
func simCycles(outs []hotnoc.SweepOutcome) (total, char int64) {
	built := map[string]bool{}
	orbits := map[string]bool{}
	for _, o := range outs {
		if o.Reactive != nil {
			continue
		}
		cfg := o.Point.Config
		if !built[cfg] {
			built[cfg] = true
			total += o.Built.BlockCycles
		}
		key := cfg + "/" + o.Point.Scheme.Name
		if orbits[key] {
			continue
		}
		orbits[key] = true
		c := o.Built.BlockCycles
		for _, leg := range o.Result.Legs {
			c += leg.DecodeCycles + leg.Migration.Cycles
		}
		char += c
		total += c
	}
	return total, char
}

// checkFigure1 verifies a cold Figure 1 against the reference for its
// scale: digest, decode count and simulated cycles.
func checkFigure1(refs map[string]figureRef, scale int, res *hotnoc.Figure1Result, outs []hotnoc.SweepOutcome, decodes uint64) error {
	ref, ok := refs[strconv.Itoa(scale)]
	if !ok {
		return fmt.Errorf("no Figure 1 reference for scale %d", scale)
	}
	digest, err := figure1Digest(res)
	if err != nil {
		return err
	}
	cycles, _ := simCycles(outs)
	var errs []error
	if digest != ref.SHA256 {
		errs = append(errs, fmt.Errorf("scale %d Figure 1 sha256 %s, want %s", scale, digest, ref.SHA256))
	}
	if decodes != ref.Decodes {
		errs = append(errs, fmt.Errorf("scale %d Figure 1 ran %d decodes, want %d", scale, decodes, ref.Decodes))
	}
	if cycles != ref.SimCycles {
		errs = append(errs, fmt.Errorf("scale %d Figure 1 simulated %d NoC cycles, want %d", scale, cycles, ref.SimCycles))
	}
	return errors.Join(errs...)
}

// sameOutcome reports whether got carries exactly want's result, bit
// for bit, for the same point.
func sameOutcome(got, want hotnoc.SweepOutcome) error {
	if got.Point.Config != want.Point.Config || got.Point.Scheme.Name != want.Point.Scheme.Name ||
		got.Point.Blocks != want.Point.Blocks || got.Point.ExcludeMigrationEnergy != want.Point.ExcludeMigrationEnergy {
		return fmt.Errorf("outcome for %s/%s period %d, want %s/%s period %d",
			got.Point.Config, got.Point.Scheme.Name, got.Point.Blocks,
			want.Point.Config, want.Point.Scheme.Name, want.Point.Blocks)
	}
	if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Reactive, want.Reactive) {
		return fmt.Errorf("%s/%s period %d: result differs from the reference",
			got.Point.Config, got.Point.Scheme.Name, got.Point.Blocks)
	}
	return nil
}

// request sweeps pts through s once, timing the whole request and its
// first outcome, and checks every outcome against want (in point order)
// when want is non-nil.
func (r *run) request(ctx context.Context, s hotnoc.Session, pts []hotnoc.SweepPoint, want []hotnoc.SweepOutcome) (outs []hotnoc.SweepOutcome, lat, first time.Duration, err error) {
	outs = make([]hotnoc.SweepOutcome, 0, len(pts))
	start := time.Now()
	for out, err := range s.Sweep(ctx, pts) {
		if err != nil {
			return nil, 0, 0, err
		}
		if len(outs) == 0 {
			first = time.Since(start)
		}
		outs = append(outs, out)
	}
	lat = time.Since(start)
	if want != nil {
		r.checkAll(outs, want)
	}
	return outs, lat, first, nil
}

// checkAll compares a whole sweep with its reference, outcome by
// outcome.
func (r *run) checkAll(outs, want []hotnoc.SweepOutcome) {
	if len(outs) != len(want) {
		r.check(fmt.Errorf("%d outcomes, want %d", len(outs), len(want)))
		return
	}
	for i := range outs {
		r.check(sameOutcome(outs[i], want[i]))
	}
}

// timed runs req until the timed phase has lasted e.seconds, and at
// least e.minRequests times, and records the phase's length.
func (e *env) timed(ctx context.Context, r *run, req func(i int) error) error {
	defer e.tr.beginTimed()()
	start := time.Now()
	for i := 0; i < e.minRequests() || time.Since(start) < e.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := req(i); err != nil {
			return err
		}
	}
	r.timed = time.Since(start)
	return nil
}

// record files one timed request's latencies: with the end-to-end
// figures when it ran untraced in an untraced run or traced in a traced
// run, and with the untraced twin figures a traced run compares against.
func (r *run) record(traced bool, e *env, lat, first time.Duration, points int) {
	if e.tr != nil && !traced {
		r.plain = append(r.plain, lat)
		return
	}
	r.requests = append(r.requests, lat)
	r.firsts = append(r.firsts, first)
	r.points += points
}

// runFig1Cold is fig1-cold: a fresh Lab with no cache directory computes
// Figure 1 (configurations A-E, all five schemes, base period) from
// nothing, as a first-time user does. Set-up warms the process with the
// same pipeline at scale 8. The input is fixed by the paper, so the seed
// is unused.
func runFig1Cold(ctx context.Context, e *env) (*run, error) {
	refs, err := figureRefs()
	if err != nil {
		return nil, err
	}
	r := &run{}
	scale := e.scaleOr(1)
	warm := max(scale, 8)
	pts := hotnoc.SweepGrid(figureConfigs, hotnoc.Schemes(), nil)
	for range e.setupReps() {
		sp := e.tr.startPhase("setup")
		start := time.Now()
		lab := hotnoc.NewLab(hotnoc.WithScale(warm))
		outs, err := lab.SweepAll(ctx, pts)
		if err != nil {
			return nil, err
		}
		r.setupDone(start)
		e.tr.end(sp)
		r.check(checkFigure1(refs, warm, hotnoc.Figure1FromOutcomes(figureConfigs, outs), outs, lab.Decodes()))
	}

	var last []hotnoc.SweepOutcome
	var lastLab *hotnoc.Lab
	err = e.timed(ctx, r, func(i int) error {
		traced := e.tracedRequest(i)
		lab := hotnoc.NewLab(e.labOptions(scale, traced)...)
		sp := e.tr.request(traced, lab.Stats)
		outs, lat, first, err := r.request(ctx, lab, pts, nil)
		e.tr.endRequest(sp)
		if err != nil {
			return err
		}
		r.record(traced, e, lat, first, len(outs))
		r.check(checkFigure1(refs, scale, hotnoc.Figure1FromOutcomes(figureConfigs, outs), outs, lab.Decodes()))
		if traced || e.tr == nil {
			last, lastLab = outs, lab
			total, char := simCycles(outs)
			r.simCycles += total
			r.charCycles += char
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	r.note("figure1_s", median(r.requests).Seconds(), "s")
	res := reportFigure(r, scale, last)
	r.note("xyshift_err_c", math.Abs(res.MeanReductionC["X-Y Shift"]-paperXYShiftC), "C")
	r.note("rot_err_c", math.Abs(res.MeanReductionC["Rot"]-paperRotC), "C")
	r.report(fmt.Sprintf("cold Figure 1 at scale %d: %d decodes, %d simulated NoC cycles per pass",
		scale, lastLab.Decodes(), r.simCycles/int64(len(r.requests))))

	if e.tr != nil {
		return r, e.layers(ctx, r, lastLab, figureConfigs[0], scale)
	}
	return r, nil
}

// reportFigure prints the model's error against the paper: the scheme
// means of Figure 1, computed from the base-period points among outs
// when they cover every configuration and scheme, and each
// configuration's calibrated base peak against Figure 1's base
// temperature. It returns the Figure 1 result, or nil.
func reportFigure(r *run, scale int, outs []hotnoc.SweepOutcome) *hotnoc.Figure1Result {
	var base []hotnoc.SweepOutcome
	for _, o := range outs {
		if o.Point.Blocks <= 1 && o.Reactive == nil && !o.Point.ExcludeMigrationEnergy {
			base = append(base, o)
		}
	}
	var res *hotnoc.Figure1Result
	if len(base) == len(figureConfigs)*len(hotnoc.Schemes()) {
		res = hotnoc.Figure1FromOutcomes(figureConfigs, base)
		r.report(fmt.Sprintf("model error against the paper at scale %d: X-Y Shift mean %.4f C (paper %.2f), Rot mean %.4f C (paper %.2f)",
			scale, res.MeanReductionC["X-Y Shift"], paperXYShiftC, res.MeanReductionC["Rot"], paperRotC))
	}
	seen := map[string]bool{}
	for _, o := range outs {
		cfg := o.Point.Config
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		spec, err := hotnoc.ConfigByName(cfg)
		if err != nil {
			continue
		}
		r.report(fmt.Sprintf("  base peak %s: model %.4f C, Figure 1 %.2f C, error %.2g C",
			cfg, o.Built.StaticPeakC, spec.BasePeakC, math.Abs(o.Built.StaticPeakC-spec.BasePeakC)))
	}
	return res
}

// warmConfigs are the configurations the warm in-process workloads
// sweep: the hottest (A) and the coolest 5x5 (E) chip.
var warmConfigs = []string{"A", "E"}

// endsAndPair returns 0, n and a seed-drawn pair {k, n-k} with
// 0 < k < n-k, in ascending order: four distinct values whose sum is
// always 2n. The warm grids draw their periods and triggers this way so
// that every seed asks for the same amount of work (evaluation cost grows
// about linearly with the period) and every sweep starts with the same
// point, while the seed still varies which points run.
func endsAndPair(rng *rand.Rand, n int) []int {
	k := 1 + rng.IntN((n-1)/2)
	return []int{0, k, n - k, n}
}

// sweepGrid is sweep-warm's input: configurations A and E, all five
// schemes, each (configuration, scheme) with four distinct migration
// periods in 1-8 blocks (1, 8 and a seed-drawn pair summing to 9), and
// the migration-energy ablation on and off — 80 periodic points.
func sweepGrid(seed uint64) []hotnoc.SweepPoint {
	rng := rand.New(rand.NewPCG(seed, 1))
	var pts []hotnoc.SweepPoint
	for _, cfg := range warmConfigs {
		for _, s := range hotnoc.Schemes() {
			for _, p := range endsAndPair(rng, 7) {
				for _, ablate := range []bool{false, true} {
					pts = append(pts, hotnoc.SweepPoint{Config: cfg, Scheme: s, Blocks: p + 1, ExcludeMigrationEnergy: ablate})
				}
			}
		}
	}
	return pts
}

// reactiveGrid is reactive-warm's input: configurations A and E under
// X-Y shift, each with four distinct sensor triggers between the
// configuration's Figure 1 base temperature minus 4 C and minus 0.5 C in
// 0.25 C steps (both ends and a seed-drawn pair symmetric about the
// middle). The block-peak timeline is omitted.
func reactiveGrid(seed uint64) []hotnoc.SweepPoint {
	rng := rand.New(rand.NewPCG(seed, 2))
	var pts []hotnoc.SweepPoint
	for _, cfg := range warmConfigs {
		spec, err := hotnoc.ConfigByName(cfg)
		if err != nil {
			panic(err) // warmConfigs are the paper's own names
		}
		for _, k := range endsAndPair(rng, 14) {
			pts = append(pts, hotnoc.ReactivePoint(cfg, hotnoc.ReactiveConfig{
				Scheme:     hotnoc.XYShift(),
				TriggerC:   spec.BasePeakC - 4 + 0.25*float64(k),
				PeaksEvery: -1,
			}))
		}
	}
	return pts
}

// runWarm is sweep-warm and reactive-warm: set-up fills a Lab's build and
// characterization caches by sweeping pts cold at paper scale; the timed
// phase repeats the sweep on the warm Lab, so it runs no decodes and
// every outcome must equal the set-up sweep's.
func runWarm(ctx context.Context, e *env, pts []hotnoc.SweepPoint) (*run, error) {
	r := &run{}
	scale := e.scaleOr(1)
	var lab, twin *hotnoc.Lab
	var ref []hotnoc.SweepOutcome
	for range e.setupReps() {
		sp := e.tr.startPhase("setup")
		start := time.Now()
		lab = hotnoc.NewLab(e.labOptions(scale, true)...)
		outs, err := lab.SweepAll(ctx, pts)
		if err != nil {
			return nil, err
		}
		r.setupDone(start)
		e.tr.end(sp)
		if ref == nil {
			ref = outs
		} else {
			r.checkAll(outs, ref)
		}
	}
	reportFigure(r, scale, ref)
	if e.tr != nil {
		// The traced run's overhead twin: the same warm Lab, untraced.
		sp := e.tr.startPhase("setup")
		twin = hotnoc.NewLab(e.labOptions(scale, false)...)
		outs, err := twin.SweepAll(ctx, pts)
		if err != nil {
			return nil, err
		}
		e.tr.end(sp)
		r.checkAll(outs, ref)
	}

	err := e.timed(ctx, r, func(i int) error {
		traced := e.tracedRequest(i)
		l := lab
		if e.tr != nil && !traced {
			l = twin
		}
		sp := e.tr.request(traced, l.Stats)
		_, lat, first, err := r.request(ctx, l, pts, ref)
		e.tr.endRequest(sp)
		if err != nil {
			return err
		}
		r.record(traced, e, lat, first, len(pts))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.tr == nil {
		return r, nil
	}
	// The orbit cycle counts ride on periodic outcomes only; a reactive
	// grid's orbits are read back from one base-period point each, which
	// the warm Lab serves from its cache without simulating.
	var base []hotnoc.SweepPoint
	seen := map[string]bool{}
	for _, p := range pts {
		if key := p.Config + "/" + p.Scheme.Name; !seen[key] {
			seen[key] = true
			base = append(base, hotnoc.PeriodicPoint(p.Config, p.Scheme, 1))
		}
	}
	return r, e.layers(ctx, r, lab, pts[0].Config, scale, base...)
}
