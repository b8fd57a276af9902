package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/obs"
	"hotnoc/server"
)

// serveClients is serve-warm's closed-loop client count: one per core of
// the 2-core reference box, each on one connection.
const serveClients = 2

// retainJobs bounds the daemon's finished-job history, as a long-lived
// deployment sets it, so memory does not grow with the jobs served.
const retainJobs = 256

// servePeriods are the migration periods serve-warm jobs draw from.
const servePeriods = 8

// serveUniverse is every point a serve-warm job can ask for: each
// configuration and scheme at each period in 1-servePeriods blocks.
func serveUniverse() ([]hotnoc.SweepPoint, map[string]int) {
	var pts []hotnoc.SweepPoint
	index := map[string]int{}
	for _, cfg := range figureConfigs {
		for _, s := range hotnoc.Schemes() {
			for p := 1; p <= servePeriods; p++ {
				index[pointKey(cfg, s.Name, p)] = len(pts)
				pts = append(pts, hotnoc.PeriodicPoint(cfg, s, p))
			}
		}
	}
	return pts, index
}

func pointKey(cfg, scheme string, blocks int) string {
	return fmt.Sprintf("%s/%s/%d", cfg, scheme, blocks)
}

// drawJob draws one serve-warm job: one (configuration, scheme) and one
// to four distinct periods of it.
func drawJob(rng *rand.Rand) []hotnoc.SweepPoint {
	cfg := figureConfigs[rng.IntN(len(figureConfigs))]
	schemes := hotnoc.Schemes()
	s := schemes[rng.IntN(len(schemes))]
	periods := rng.Perm(servePeriods)[:1+rng.IntN(4)]
	pts := make([]hotnoc.SweepPoint, len(periods))
	for i, p := range periods {
		pts[i] = hotnoc.PeriodicPoint(cfg, s, p+1)
	}
	return pts
}

// daemon is an in-process hotnocd: server.New behind httptest.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
}

func startDaemon(reg *obs.Registry) *daemon {
	srv := server.New(server.Config{RetainJobs: retainJobs, Metrics: reg})
	return &daemon{srv: srv, ts: httptest.NewServer(srv)}
}

// close drains the daemon's jobs and stops its listener.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every job has finished; nothing is left to drain
	d.ts.Close()
}

// runServeWarm is serve-warm: an in-process daemon, warmed at scale 4
// over every point a job can name, serves two closed-loop clients. Each
// client submits a seed-drawn job and streams it to its last outcome
// before sending the next. Every outcome must equal an in-process Lab's
// for the same point.
func runServeWarm(ctx context.Context, e *env) (*run, error) {
	r := &run{}
	scale := e.scaleOr(4)
	universe, index := serveUniverse()

	var d *daemon
	var ref []hotnoc.SweepOutcome
	var refLab *hotnoc.Lab
	for range e.setupReps() {
		if d != nil {
			d.close()
		}
		sp := e.tr.startPhase("setup")
		start := time.Now()
		refLab = hotnoc.NewLab(hotnoc.WithScale(scale))
		var err error
		if ref, err = refLab.SweepAll(ctx, universe); err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		if e.tr != nil {
			reg = e.tr.reg
		}
		d = startDaemon(reg)
		opts := []client.Option{client.WithScale(scale)}
		if e.tr != nil {
			opts = append(opts, client.WithProgress(e.tr.progress(&e.tr.parent)))
		}
		outs, err := client.New(d.ts.URL, opts...).SweepAll(ctx, universe)
		if err != nil {
			d.close()
			return nil, err
		}
		r.setupDone(start)
		e.tr.end(sp)
		r.checkAll(outs, ref)
		if e.tr != nil {
			r.simCycles, r.charCycles = simCycles(outs)
		}
	}
	defer d.close()
	reportFigure(r, scale, ref)

	var w *wireCounter
	if e.tr != nil {
		w = &wireCounter{}
		r.wire = w
		stats := client.New(d.ts.URL)
		fn := func() (int, int) {
			s, err := stats.Stats(ctx)
			if err != nil || len(s.Labs) == 0 {
				return 0, 0
			}
			return s.Labs[0].BusyWorkers, s.Labs[0].Workers
		}
		e.tr.busy.Store(&fn)
		defer e.tr.busy.Store(nil)
	}

	endTimed := e.tr.beginTimed()
	start := time.Now()
	var wg sync.WaitGroup
	results := make([]run, serveClients)
	errs := make([]error, serveClients)
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = serveClient(ctx, e, d.ts.URL, scale, uint64(c), start, w, ref, index, &results[c])
		}()
	}
	wg.Wait()
	r.timed = time.Since(start)
	endTimed()
	for c := range results {
		if errs[c] != nil {
			return nil, errs[c]
		}
		cr := &results[c]
		r.requests = append(r.requests, cr.requests...)
		r.firsts = append(r.firsts, cr.firsts...)
		r.plain = append(r.plain, cr.plain...)
		r.points += cr.points
		r.attempted += cr.attempted
		r.failed += cr.failed
		r.lines = append(r.lines, cr.lines...)
	}
	r.note("job_p50_ms", ms(percentile(r.requests, 0.5)), "ms")
	r.note("job_p99_ms", ms(percentile(r.requests, 0.99)), "ms")
	r.note("jobs", float64(len(r.requests)), "count")

	if e.tr != nil {
		if err := w.scrape(ctx, d.ts.URL); err != nil {
			return nil, err
		}
		return r, e.layers(ctx, r, refLab, figureConfigs[0], scale)
	}
	return r, nil
}

// serveClient is one closed-loop client: it sends seed-drawn jobs until
// the timed phase is over, checking every outcome against ref. In a
// traced run it alternates between a client whose transport counts
// the wire (traced) and a plain one, over one shared connection.
func serveClient(ctx context.Context, e *env, url string, scale int, id uint64, start time.Time,
	w *wireCounter, ref []hotnoc.SweepOutcome, index map[string]int, r *run) error {
	rng := rand.New(rand.NewPCG(e.seed, 16+id))
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer base.CloseIdleConnections()
	plain := client.New(url, client.WithScale(scale), client.WithHTTPClient(&http.Client{Transport: base}))
	var parent atomic.Int64
	var traced *client.Client
	if w != nil {
		traced = client.New(url, client.WithScale(scale),
			client.WithHTTPClient(&http.Client{Transport: w.wrap(base)}),
			client.WithProgress(e.tr.progress(&parent)))
	}
	for i := 0; i < e.minRequests() || time.Since(start) < e.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		pts := drawJob(rng)
		want := make([]hotnoc.SweepOutcome, len(pts))
		for k, p := range pts {
			want[k] = ref[index[pointKey(p.Config, p.Scheme.Name, p.Blocks)]]
		}
		isTraced := e.tracedRequest(i)
		cl := plain
		var sp int
		if isTraced {
			cl = traced
			sp = e.tr.begin("job", pts[0].Config+"/"+pts[0].Scheme.Name)
			parent.Store(int64(sp))
		}
		_, lat, first, err := r.request(ctx, cl, pts, want)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		r.record(isTraced, e, lat, first, len(pts))
		if isTraced {
			w.points.Add(int64(len(pts)))
		}
	}
	return nil
}

// wireCounter times sweep submissions and event streams, and counts the
// bytes the streams carry, through the transport wrap returns, which a
// client takes with client.WithHTTPClient.
type wireCounter struct {
	mu               sync.Mutex
	submits, streams []time.Duration
	bytes            int64
	points           atomic.Int64
	// queueWait, queueN and rejected are read from the daemon's
	// GET /metrics.
	queueWait, queueN, rejected float64
}

type countingTransport struct {
	w    *wireCounter
	base http.RoundTripper
}

func (w *wireCounter) wrap(base http.RoundTripper) http.RoundTripper {
	return countingTransport{w, base}
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/sweeps":
		resp.Body = &countingBody{ReadCloser: resp.Body, done: func(int64) {
			c.w.mu.Lock()
			c.w.submits = append(c.w.submits, time.Since(start))
			c.w.mu.Unlock()
		}}
	case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/events"):
		resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
			c.w.mu.Lock()
			c.w.streams = append(c.w.streams, time.Since(start))
			c.w.bytes += n
			c.w.mu.Unlock()
		}}
	}
	return resp, nil
}

// countingBody counts the bytes read through it and reports them once,
// when closed.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// scrape reads the daemon's queue-wait histogram and rejection counter
// from its Prometheus GET /metrics.
func (w *wireCounter) scrape(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			// Label values may hold spaces; the value follows the
			// closing brace.
			if j := strings.LastIndexByte(line, '}'); j >= 0 {
				rest = line[j+1:]
			}
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		switch name {
		case "hotnocd_queue_wait_seconds_sum":
			w.queueWait += v
		case "hotnocd_queue_wait_seconds_count":
			w.queueN += v
		case "hotnocd_submissions_rejected_total":
			w.rejected += v
		}
	}
	return sc.Err()
}

// metrics are the service layers' per-layer figures.
func (w *wireCounter) metrics() map[string]metric {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := map[string]metric{
		"server.submit_ms":     {ms(median(w.submits)), "ms"},
		"server.stream_ms":     {ms(median(w.streams)), "ms"},
		"server.rejected":      {w.rejected, "count"},
		"server.queue_wait_ms": {0, "ms"},
		"wire.bytes_per_point": {0, "B"},
	}
	if w.queueN > 0 {
		m["server.queue_wait_ms"] = metric{1000 * w.queueWait / w.queueN, "ms"}
	}
	if p := w.points.Load(); p > 0 {
		m["wire.bytes_per_point"] = metric{float64(w.bytes) / float64(p), "B"}
	}
	return m
}

// probeServer measures the service layers for the in-process workloads,
// which do not use them: an httptest daemon at scale 8, warmed on one
// orbit, serves probeJobs jobs of one to four points through a counting
// transport.
func probeServer(ctx context.Context, t *tracer) (*wireCounter, error) {
	const scale, probeJobs = 8, 16
	sp := t.begin("server.probe", "")
	defer t.end(sp)
	d := startDaemon(obs.NewRegistry())
	defer d.close()
	w := &wireCounter{}
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer base.CloseIdleConnections()
	cl := client.New(d.ts.URL, client.WithScale(scale), client.WithHTTPClient(&http.Client{Transport: base}))
	orbit := hotnoc.SweepGrid([]string{"A"}, []hotnoc.Scheme{hotnoc.XYShift()}, []int{1, 2, 3, 4})
	if _, err := cl.SweepAll(ctx, orbit); err != nil {
		return nil, err
	}
	counted := client.New(d.ts.URL, client.WithScale(scale), client.WithHTTPClient(&http.Client{Transport: w.wrap(base)}))
	for i := range probeJobs {
		pts := orbit[:1+i%len(orbit)]
		if _, err := counted.SweepAll(ctx, pts); err != nil {
			return nil, err
		}
		w.points.Add(int64(len(pts)))
	}
	return w, w.scrape(ctx, d.ts.URL)
}
