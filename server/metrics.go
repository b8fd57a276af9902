package server

import (
	"net/http"
	"time"

	"hotnoc/obs"
	"hotnoc/server/wire"
)

// serverMetrics is the daemon's own instrument set: scheduler depth
// gauges and the queue-wait histogram. Per-tenant instruments live on
// each tenant's scheduler state (tenantMetrics).
//
// Gauges are updated explicitly at the scheduler's mutation points
// (enqueue, dispatch, terminal) rather than through scrape-time
// collectors: a collector reading scheduler state would need s.mu,
// and s.mu is held around Lab creation, which registers instruments —
// taking the registry lock. Explicit updates keep the two locks
// strictly ordered (server → registry, never back).
type serverMetrics struct {
	queueWait   *obs.Histogram
	jobsRunning *obs.Gauge
	jobsQueued  *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		queueWait: reg.Histogram("hotnocd_queue_wait_seconds",
			"Time sweep jobs spent queued between admission and dispatch.", nil, nil),
		jobsRunning: reg.Gauge("hotnocd_jobs_running",
			"Sweep jobs currently running.", nil),
		jobsQueued: reg.Gauge("hotnocd_jobs_queued",
			"Sweep jobs currently waiting in tenant queues.", nil),
	}
}

// tenantMetrics is one tenant's instruments, resolved once when the
// scheduler first sees the tenant. The counters are the only record of
// the tenant's accounting: /v1/stats reads them, and they are owned by
// this daemon, so a registry shared with another daemon sums the two on
// /metrics without mixing their /v1/stats.
type tenantMetrics struct {
	// done, failed and canceled are hotnocd_jobs_total by terminal state.
	done, failed, canceled *obs.Counter
	// rejected counts 429s: over-rate or over-queue submissions.
	rejected *obs.Counter
	// points counts outcomes streamed to the tenant's clients.
	points *obs.Counter
	queued *obs.Gauge
}

func newTenantMetrics(reg *obs.Registry, tenant string) tenantMetrics {
	jobs := func(state string) *obs.Counter {
		return reg.OwnedCounter("hotnocd_jobs_total",
			"Sweep jobs finished, by tenant and terminal state.",
			obs.Labels{"tenant": tenant, "state": state})
	}
	return tenantMetrics{
		done:     jobs(wire.JobDone),
		failed:   jobs(wire.JobFailed),
		canceled: jobs(wire.JobCanceled),
		rejected: reg.OwnedCounter("hotnocd_submissions_rejected_total",
			"Sweep submissions rejected with 429, by tenant.",
			obs.Labels{"tenant": tenant}),
		points: reg.OwnedCounter("hotnocd_points_total",
			"Grid points streamed to clients, by tenant.",
			obs.Labels{"tenant": tenant}),
		queued: reg.Gauge("hotnocd_tenant_jobs_queued",
			"Sweep jobs waiting in one tenant's queue.", obs.Labels{"tenant": tenant}),
	}
}

// finished returns the jobs counter of one terminal state.
func (tm *tenantMetrics) finished(state string) *obs.Counter {
	switch state {
	case wire.JobDone:
		return tm.done
	case wire.JobFailed:
		return tm.failed
	}
	return tm.canceled // the only other terminal state
}

// jobQueued records a job entering its tenant's queue.
func (m *serverMetrics) jobQueued(ts *tenantState) {
	m.jobsQueued.Add(1)
	ts.met.queued.Add(1)
}

// jobDispatched records a queued job winning a slot after wait.
func (m *serverMetrics) jobDispatched(ts *tenantState, wait time.Duration) {
	m.jobsQueued.Add(-1)
	ts.met.queued.Add(-1)
	m.jobsRunning.Add(1)
	m.queueWait.Observe(wait.Seconds())
}

// jobFinished records a dispatched job reaching the terminal state.
func (m *serverMetrics) jobFinished(ts *tenantState, state string) {
	m.jobsRunning.Add(-1)
	ts.met.finished(state).Inc()
}

// jobTerminatedQueued records a job canceled out of its queue without
// ever running.
func (m *serverMetrics) jobTerminatedQueued(ts *tenantState, state string) {
	m.jobsQueued.Add(-1)
	ts.met.queued.Add(-1)
	ts.met.finished(state).Inc()
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format. The route lives outside /v1 and carries no tenant auth — like
// /healthz it is infrastructure surface, expected to be reachable by a
// scraper, not by tenants. On a coordinator the scrape first refreshes
// the fleet ledger, so fleet-wide counters are at most one scrape
// interval stale.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if fl := s.cfg.Fleet; fl != nil {
		fl.RefreshStats(r.Context())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
