package sim

import (
	"strconv"
	"time"

	"hotnoc/obs"
)

// metrics holds the runner's instruments, resolved once at construction
// so the recording paths are pure atomic operations. The counters are the
// runner's own (obs.Registry.OwnedCounter): Lab.Stats reads them, and the
// registry's series sum them with any other runner of the same scale.
type metrics struct {
	buildSeconds *obs.Histogram
	charSeconds  *obs.Histogram
	evalSeconds  *obs.Histogram

	charHits    *obs.Counter
	charMisses  *obs.Counter
	buildHits   *obs.Counter
	buildMisses *obs.Counter

	// decodes counts engine block decodes — the unit of expensive NoC
	// work. A fully cache-served sweep leaves it untouched.
	decodes *obs.Counter
	points  *obs.Counter
}

// newMetrics registers the pipeline instruments on reg, labeled with
// the runner's scale so several runners can share one registry.
func newMetrics(reg *obs.Registry, scale int) *metrics {
	s := strconv.Itoa(scale)
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("hotnoc_stage_seconds",
			"Pipeline stage latency in seconds; build and characterize observe cold computes only.",
			obs.Labels{"scale": s, "stage": name}, obs.LatencyBuckets())
	}
	cache := func(kind, result string) *obs.Counter {
		return reg.OwnedCounter("hotnoc_cache_requests_total",
			"Cross-run cache requests by artifact kind and result.",
			obs.Labels{"scale": s, "kind": kind, "result": result})
	}
	return &metrics{
		buildSeconds: stage("build"),
		charSeconds:  stage("characterize"),
		evalSeconds:  stage("evaluate"),
		charHits:     cache("characterization", "hit"),
		charMisses:   cache("characterization", "miss"),
		buildHits:    cache("build", "hit"),
		buildMisses:  cache("build", "miss"),
		decodes: reg.OwnedCounter("hotnoc_decodes_total",
			"Engine block decodes performed for NoC characterizations.",
			obs.Labels{"scale": s}),
		points: reg.OwnedCounter("hotnoc_points_evaluated_total",
			"Grid points evaluated by the thermal stage.",
			obs.Labels{"scale": s}),
	}
}

// buildDone records one classified build resolution. Only cold builds
// observe latency: a hit's disk-or-memory load says nothing about the
// annealing cost the histogram tracks.
func (m *metrics) buildDone(hit bool, d time.Duration) {
	if hit {
		m.buildHits.Inc()
	} else {
		m.buildMisses.Inc()
		m.buildSeconds.Observe(d.Seconds())
	}
}

// charDone records one classified characterization resolution; cold
// orbits observe latency.
func (m *metrics) charDone(hit bool, d time.Duration) {
	if hit {
		m.charHits.Inc()
	} else {
		m.charMisses.Inc()
		m.charSeconds.Observe(d.Seconds())
	}
}

// evaluateDone records one thermal evaluation. This runs once per grid
// point on the hot path; it is allocation-free.
//
//hotnoc:noalloc
func (m *metrics) evaluateDone(d time.Duration) {
	m.points.Inc()
	m.evalSeconds.Observe(d.Seconds())
}
