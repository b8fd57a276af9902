package fleet

import (
	"context"
	"maps"
	"slices"
	"strings"
	"sync"

	"hotnoc"
	"hotnoc/obs"
	"hotnoc/server/wire"
)

// statsLedger makes the fleet's aggregated counters monotonic across
// worker restarts. A worker that loses its lease and re-registers (or
// crashes and comes back) reports counters that restarted from zero; a
// naive sum over live workers would make the fleet totals go *down*,
// which breaks anything rate()-ing them. The ledger keys on worker URL
// — the stable identity across re-registration, since coordinator ids
// change on every rejoin — and on series (a /v1/stats counter field and
// its row), and keeps, per URL, the banked final snapshots of previous
// incarnations plus the latest snapshot of the current one.
//
// A drop in any of a URL's series, or a series vanishing, means the
// worker restarted: its whole previous snapshot is banked and the new
// one starts the next incarnation. No counter can fall within one
// worker process — Labs are never dropped and scheduler tenant states
// are never deleted — so judging the snapshot as a whole is safe, and
// it catches a new incarnation whose Lab counters already passed the
// old ones while its tenant counters fell. Totals are Σ(banked + last)
// over every URL ever observed, so a departed worker's work stays
// counted.
//
// Only counters live here. Gauges (pool sizes, busy workers,
// running/queued jobs) describe the present and must come from the
// workers currently reachable, not from history.
type statsLedger struct {
	mu    sync.Mutex
	byURL map[string]*urlLedger
	// weights is the most recently observed weight per tenant, across
	// all workers — weight is configuration, not a counter, so the last
	// report wins regardless of which worker it came from.
	weights map[string]int
}

// urlLedger is one worker URL's accumulation state.
type urlLedger struct {
	banked []obs.Sample // summed final snapshots of dead incarnations
	last   []obs.Sample // latest snapshot of the live incarnation
}

func newStatsLedger() *statsLedger {
	return &statsLedger{byURL: map[string]*urlLedger{}, weights: map[string]int{}}
}

// observe folds one successfully fetched worker stats snapshot into the
// ledger.
func (l *statsLedger) observe(url string, st wire.Stats) {
	var cur []obs.Sample
	for _, s := range st.Samples() {
		if s.Type == obs.TypeCounter {
			cur = append(cur, s)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ts := range st.Tenants {
		l.weights[ts.ID] = ts.Weight
	}
	ul, ok := l.byURL[url]
	if !ok {
		ul = &urlLedger{}
		l.byURL[url] = ul
	}
	if restarted(ul.last, cur) {
		ul.banked = obs.Sum(append(ul.banked, ul.last...), "scale", "tenant")
	}
	ul.last = cur
}

// restarted reports whether any series of prev fell or vanished in cur.
func restarted(prev, cur []obs.Sample) bool {
	now := make(map[string]float64, len(cur))
	for _, s := range cur {
		now[s.Series()] = s.Value
	}
	for _, s := range prev {
		if v, ok := now[s.Series()]; !ok || v < s.Value {
			return true
		}
	}
	return false
}

// samples returns every observed URL's counters, banked and live,
// labeled worker=URL and ordered by URL.
//
//hotnoc:deterministic
func (l *statsLedger) samples() []obs.Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Sample
	for _, url := range slices.Sorted(maps.Keys(l.byURL)) {
		ul := l.byURL[url]
		for _, s := range slices.Concat(ul.banked, ul.last) {
			labels := maps.Clone(s.Labels)
			labels["worker"] = url
			s.Labels = labels
			out = append(out, s)
		}
	}
	return out
}

// stats returns the fleet-wide rows: every URL's monotonic counters
// summed, plus the given gauge samples, with each tenant's most
// recently observed weight.
//
//hotnoc:deterministic
func (l *statsLedger) stats(gauges []obs.Sample) wire.Stats {
	samples := append(l.samples(), gauges...)
	l.mu.Lock()
	weights := maps.Clone(l.weights)
	l.mu.Unlock()
	var st wire.Stats
	st.SetRows(obs.Sum(samples, "scale", "tenant"), weights)
	return st
}

// zeroLabCounters returns one zero-valued sample per Lab counter of
// /v1/stats, labeled with labels.
func zeroLabCounters(labels obs.Labels) []obs.Sample {
	var out []obs.Sample
	for _, s := range (wire.Stats{Labs: make([]hotnoc.LabStats, 1)}).Samples() {
		if s.Type == obs.TypeCounter {
			s.Labels = labels
			out = append(out, s)
		}
	}
	return out
}

// perWorker returns each observed URL's monotonic Lab counters, summed
// over scales and labeled worker=URL — the per-worker series on the
// coordinator's /metrics. Every URL gets every Lab counter, so a worker
// that has run nothing still has its series.
//
//hotnoc:deterministic
func (l *statsLedger) perWorker() []obs.Sample {
	l.mu.Lock()
	urls := slices.Sorted(maps.Keys(l.byURL))
	l.mu.Unlock()
	var labs []obs.Sample
	for _, url := range urls {
		labs = append(labs, zeroLabCounters(obs.Labels{"worker": url})...)
	}
	for _, s := range l.samples() {
		if _, ok := s.Labels["scale"]; ok {
			labs = append(labs, s)
		}
	}
	return obs.Sum(labs, "worker")
}

// RefreshStats fetches and folds in every reachable worker's stats,
// updating the ledger the metrics collector reads. The coordinator's
// /metrics handler calls it per scrape, making the scrape the fleet's
// natural aggregation trigger.
func (c *Coordinator) RefreshStats(ctx context.Context) {
	c.FleetStats(ctx)
}

// MetricsCollector returns an obs.Collector contributing the fleet's
// aggregate view to a coordinator's registry at scrape time: for each
// Lab counter of /v1/stats, a monotonic series per worker URL (stable
// across lease expiry and re-registration) and a fleet-wide monotonic
// sum, plus the live worker-count gauge.
func (c *Coordinator) MetricsCollector() obs.Collector {
	return func(emit func(obs.Sample)) {
		perWorker := c.ledger.perWorker()
		for _, s := range perWorker {
			what := strings.ReplaceAll(s.Name, "_", " ")
			s.Name = "hotnocd_fleet_worker_" + s.Name + "_total"
			s.Help = "Per-worker " + what + " as on /v1/stats, monotonic across worker restarts."
			emit(s)
		}
		for _, s := range obs.Sum(append(zeroLabCounters(nil), perWorker...)) {
			what := strings.ReplaceAll(s.Name, "_", " ")
			s.Name = "hotnocd_fleet_" + s.Name + "_total"
			s.Help = "Fleet-wide " + what + " as on /v1/stats, monotonic across worker restarts."
			emit(s)
		}
		// c.live, not c.WorkerCount(): the collector runs under the
		// registry lock and must not take c.mu (lockorder rule).
		emit(obs.Sample{Name: "hotnocd_fleet_workers", Type: obs.TypeGauge,
			Help: "Live fleet workers.", Value: float64(c.live.Load())})
	}
}
