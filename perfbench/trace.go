package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hotnoc"
	"hotnoc/obs"
)

// tracer is a traced run's span recorder. It keeps spans in memory and
// writes them out when the run ends. Spans are recorded from the
// benchmark's own code around calls into each layer, and from the Lab's
// progress hook; the program itself is not instrumented. A nil tracer
// records nothing, which is how an untraced run uses the same code.
type tracer struct {
	id string
	t0 time.Time
	// reg receives the traced Labs' (and daemon's) pipeline metrics.
	reg *obs.Registry

	mu    sync.Mutex
	spans []span
	// open maps a pipeline stage in flight to its span.
	open map[string]int
	// root is the whole run's span; phase is the set-up or timed span
	// new requests and pipeline events hang under.
	root, phase int

	// parent is the traced request in flight in process; pipeline events
	// of a traced Lab become its children.
	parent atomic.Int64
	// busy points at the utilization probe of the traced request's Lab
	// while one runs; the sampler reads it.
	busy atomic.Pointer[func() (busy, workers int)]
	// busySum and capSum accumulate sampled busy workers and pool size.
	busySum, capSum atomic.Int64

	// cacheBefore and cacheAfter snapshot the cache counters around the
	// timed phase.
	cacheBefore, cacheAfter map[string]float64
}

// span is one recorded interval. Start and End are seconds since the
// run began; Self is End-Start minus the time its children cover.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Attr   string  `json:"attr,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

func newTracer(workload string, seed uint64) *tracer {
	t := &tracer{
		id:   fmt.Sprintf("%s-%d", workload, seed),
		t0:   time.Now(),
		reg:  obs.NewRegistry(),
		open: map[string]int{},
	}
	t.root = t.childLocked("run", workload, 0)
	t.phase = t.root
	return t
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// childLocked opens a span under parent and returns its id.
func (t *tracer) childLocked(name, attr string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.id, Name: name, Attr: attr, Start: t.now(), End: -1})
	return len(t.spans)
}

// begin opens a span under the current phase.
func (t *tracer) begin(name, attr string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.childLocked(name, attr, t.phase)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// startPhase opens a set-up or timed phase under the root span and makes
// it the parent of what follows.
func (t *tracer) startPhase(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phase = t.childLocked(name, "", t.root)
	return t.phase
}

// request opens a timed request's span when it runs traced, and points
// the pipeline hook and the utilization sampler at it.
func (t *tracer) request(traced bool, stats func() hotnoc.LabStats) int {
	if t == nil || !traced {
		return 0
	}
	id := t.begin("request", "")
	t.parent.Store(int64(id))
	fn := func() (int, int) {
		s := stats()
		return s.BusyWorkers, s.Workers
	}
	t.busy.Store(&fn)
	return id
}

func (t *tracer) endRequest(id int) {
	if t == nil || id == 0 {
		return
	}
	t.busy.Store(nil)
	t.parent.Store(0)
	t.end(id)
}

// sampleEvery is the utilization sampler's period.
const sampleEvery = 5 * time.Millisecond

// sample starts the utilization sampler: every sampleEvery it adds the
// busy and total workers of the traced request in flight, if any. The
// returned stop function ends the sampler and waits for it.
func (t *tracer) sample() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if fn := t.busy.Load(); fn != nil {
					busy, workers := (*fn)()
					t.busySum.Add(int64(busy))
					t.capSum.Add(int64(workers))
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// beginTimed opens the timed phase: its span, the utilization sampler
// and the cache-counter snapshot. The returned function closes them.
func (t *tracer) beginTimed() (end func()) {
	if t == nil {
		return func() {}
	}
	sp := t.startPhase("timed")
	t.cacheBefore = t.cacheCounts()
	stop := t.sample()
	return func() {
		stop()
		t.cacheAfter = t.cacheCounts()
		t.end(sp)
	}
}

// busyFrac is the sampled share of worker capacity that was busy while
// traced requests ran.
func (t *tracer) busyFrac() float64 {
	if c := t.capSum.Load(); c > 0 {
		return float64(t.busySum.Load()) / float64(c)
	}
	return 0
}

// progress returns a pipeline hook that turns a Lab's build and
// characterization events into spans under the span parent holds, or
// under the current phase when it holds none.
func (t *tracer) progress(parent *atomic.Int64) func(hotnoc.Event) {
	return func(ev hotnoc.Event) {
		var name, attr string
		switch ev.Stage {
		case hotnoc.StageBuildStart, hotnoc.StageBuildDone:
			name, attr = "sim.build", ev.Config
		case hotnoc.StageCharacterizeStart, hotnoc.StageCharacterizeDone:
			name, attr = "sim.characterize", ev.Config+"/"+ev.Scheme
		default:
			return
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		p := int(parent.Load())
		if p == 0 {
			p = t.phase
		}
		key := fmt.Sprintf("%d/%s/%s", p, name, attr)
		if ev.Stage == hotnoc.StageBuildStart || ev.Stage == hotnoc.StageCharacterizeStart {
			t.open[key] = t.childLocked(name, attr, p)
		} else if id, ok := t.open[key]; ok { // a cache hit has no start
			t.spans[id-1].End = t.now()
			delete(t.open, key)
		}
	}
}

// labOptions returns the options of a Lab at scale: a traced Lab also
// reports pipeline events to the tracer and records the pipeline metrics
// into its registry.
func (e *env) labOptions(scale int, traced bool) []hotnoc.LabOption {
	opts := []hotnoc.LabOption{hotnoc.WithScale(scale)}
	if traced && e.tr != nil {
		opts = append(opts, hotnoc.WithProgress(e.tr.progress(&e.tr.parent)), hotnoc.WithMetrics(e.tr.reg))
	}
	return opts
}

// gather sums the registry's samples of one metric name whose labels
// include every pair in match.
func (t *tracer) gather(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range t.reg.Gather() {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// cacheCounts snapshots the cross-run cache request counters by kind and
// result.
func (t *tracer) cacheCounts() map[string]float64 {
	if t == nil {
		return nil
	}
	out := map[string]float64{}
	for _, s := range t.reg.Gather() {
		if s.Name == "hotnoc_cache_requests_total" {
			out[s.Labels["kind"]+"/"+s.Labels["result"]] += s.Value
		}
	}
	return out
}

// hitRatio is the timed phase's share of kind requests served from the
// cache.
func (t *tracer) hitRatio(kind string) float64 {
	d := func(res string) float64 { return t.cacheAfter[kind+"/"+res] - t.cacheBefore[kind+"/"+res] }
	if n := d("hit") + d("miss"); n > 0 {
		return d("hit") / n
	}
	return 0
}

// layerTime is one span name's total and self time across the run.
type layerTime struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// finish closes the root span, computes every span's self time and
// returns the per-name totals.
func (t *tracer) finish() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	kids := map[int][][2]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			s.End = now
		}
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.Self
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, k int) bool { return ivs[i][0] < ivs[k][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans and the per-name times as JSON at path and
// returns report lines summarising self time by span name.
func (t *tracer) write(path string) ([]string, error) {
	layers := t.finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(struct {
		Trace  string               `json:"trace"`
		Spans  []span               `json:"spans"`
		Layers map[string]layerTime `json:"layers"`
	}{t.id, t.spans, layers}, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("spans (%d) written to %s; time by span name:", len(t.spans), path)}
	for _, n := range names {
		l := layers[n]
		lines = append(lines, fmt.Sprintf("  %-22s %5d spans %10.4f s total %10.4f s self", n, l.Count, l.Total, l.Self))
	}
	return lines, nil
}
