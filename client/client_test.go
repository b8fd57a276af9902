package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hotnoc"
	"hotnoc/server/wire"
)

// oldDaemon fakes a hotnocd predating the unified point model: its JSON
// decoder drops the unknown kind/reactive fields, so every submitted
// point is accepted and evaluated as periodic, and the echoed PointSpec
// carries no reactive payload. It streams extra outcomes past the
// submitted points, as a buggy or hostile daemon might.
func oldDaemon(t *testing.T, extra int) string {
	t.Helper()
	var points []wire.PointSpec
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Points []struct {
				Config string `json:"config"`
				Scheme string `json:"scheme"`
				Blocks int    `json:"blocks"`
				// No kind, no reactive: an old daemon's request type.
			} `json:"points"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("old daemon could not decode sweep: %v", err)
		}
		points = points[:0]
		for _, p := range req.Points {
			points = append(points, wire.PointSpec{Config: p.Config, Scheme: p.Scheme, Blocks: p.Blocks})
		}
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(wire.SweepCreated{ID: "job-1", Points: len(points)})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i := range len(points) + extra {
			p := points[i%len(points)]
			msg := wire.OutcomeMsg{Index: i, Point: p, Built: wire.BuiltInfo{
				Config: p.Config, GridW: 4, GridH: 4, ClockHz: 1e9, StaticPeakC: 80, BlockCycles: 1000,
			}}
			data, _ := json.Marshal(msg)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", wire.EventOutcome, data)
		}
		fmt.Fprintf(w, "event: %s\ndata: {}\n\n", wire.EventDone)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(wire.JobInfo{ID: r.PathValue("id")})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestSweepDetectsKindSkew: a reactive point submitted to a daemon that
// silently runs it as periodic must surface an error, not hand the
// caller results of the wrong experiment. A pure periodic grid against
// the same daemon still streams fine.
func TestSweepDetectsKindSkew(t *testing.T) {
	c := New(oldDaemon(t, 0))
	ctx := context.Background()

	pts := []hotnoc.SweepPoint{
		hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1),
		hotnoc.ReactivePoint("A", hotnoc.ReactiveConfig{Scheme: hotnoc.Rot(), TriggerC: 84}),
	}
	_, err := c.SweepAll(ctx, pts)
	if err == nil || !strings.Contains(err.Error(), "unified point model") {
		t.Fatalf("kind skew not detected (err %v)", err)
	}

	periodic := []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)}
	outs, err := c.SweepAll(ctx, periodic)
	if err != nil {
		t.Fatalf("periodic grid against an old daemon failed: %v", err)
	}
	if len(outs) != 1 {
		t.Fatalf("%d outcomes, want 1", len(outs))
	}
}

// TestSweepRejectsExtraOutcome: a daemon that streams an outcome past the
// last submitted point gets an error before the consumer sees it.
func TestSweepRejectsExtraOutcome(t *testing.T) {
	c := New(oldDaemon(t, 1))
	pts := []hotnoc.SweepPoint{
		hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1),
		hotnoc.PeriodicPoint("A", hotnoc.Rot(), 4),
	}
	seen := 0
	var last error
	for _, err := range c.Sweep(context.Background(), pts) {
		if err != nil {
			last = err
			break
		}
		seen++
	}
	if seen != len(pts) {
		t.Errorf("consumer saw %d outcomes for %d points", seen, len(pts))
	}
	if last == nil || !strings.Contains(last.Error(), "outcome 2 beyond the 2 submitted points") {
		t.Errorf("extra outcome not rejected (err %v)", last)
	}
}

// throttlingDaemon answers its first reject sweep submissions with 429
// (carrying retryAfter when non-empty) and then admits, recording every
// request's Authorization header.
func throttlingDaemon(t *testing.T, reject int, retryAfter string) (url string, attempts *int, auths *[]string) {
	t.Helper()
	var n int
	var seen []string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		n++
		seen = append(seen, r.Header.Get("Authorization"))
		if n <= reject {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(wire.ErrorMsg{Error: "tenant is over its submit rate"})
			return
		}
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(wire.SweepCreated{ID: "job-1", Points: 1})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, &n, &seen
}

// TestRetryableError: a 429 surfaces as a typed *RetryableError with
// the parsed Retry-After, so callers can implement their own pacing.
func TestRetryableError(t *testing.T) {
	url, attempts, _ := throttlingDaemon(t, 1000, "7")
	c := New(url)
	_, err := c.StartSweep(context.Background(), []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)})
	var re *RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("429 produced %T (%v), want *RetryableError", err, err)
	}
	if re.Status != http.StatusTooManyRequests {
		t.Fatalf("RetryableError.Status = %d, want 429", re.Status)
	}
	if re.RetryAfter != 7*time.Second {
		t.Fatalf("RetryableError.RetryAfter = %s, want 7s", re.RetryAfter)
	}
	if !strings.Contains(re.Error(), "submit rate") {
		t.Fatalf("error text %q drops the server's message", re.Error())
	}
	if *attempts != 1 {
		t.Fatalf("client without WithRetry submitted %d times, want 1", *attempts)
	}
}

// TestWithRetrySubmits: WithRetry(n) absorbs up to n retryable
// rejections with backoff and then succeeds; a non-retryable error is
// returned immediately.
func TestWithRetrySubmits(t *testing.T) {
	url, attempts, _ := throttlingDaemon(t, 2, "")
	c := New(url, WithRetry(3))
	pts := []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)}
	id, err := c.StartSweep(context.Background(), pts)
	if err != nil {
		t.Fatalf("retrying submit failed: %v", err)
	}
	if id != "job-1" {
		t.Fatalf("retried submit returned id %q, want job-1", id)
	}
	if *attempts != 3 {
		t.Fatalf("daemon saw %d submissions, want 3 (two rejections + success)", *attempts)
	}

	// More rejections than retries: the final RetryableError surfaces.
	url2, attempts2, _ := throttlingDaemon(t, 1000, "")
	c2 := New(url2, WithRetry(2))
	_, err = c2.StartSweep(context.Background(), pts)
	var re *RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("exhausted retries produced %T (%v), want *RetryableError", err, err)
	}
	if *attempts2 != 3 {
		t.Fatalf("daemon saw %d submissions, want 3 (initial + 2 retries)", *attempts2)
	}
}

// TestWithRetryHonorsContext: a canceled context stops the backoff wait
// instead of sleeping it out.
func TestWithRetryHonorsContext(t *testing.T) {
	url, _, _ := throttlingDaemon(t, 1000, "3600")
	c := New(url, WithRetry(5))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.StartSweep(ctx, []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled retry returned %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry slept through the server's Retry-After despite context cancellation")
	}
}

// TestAPIKeyHeader: WithAPIKey attaches the Bearer credential to every
// request.
func TestAPIKeyHeader(t *testing.T) {
	url, _, auths := throttlingDaemon(t, 0, "")
	c := New(url, WithAPIKey("s3cret"))
	if _, err := c.StartSweep(context.Background(), []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)}); err != nil {
		t.Fatal(err)
	}
	if len(*auths) != 1 || (*auths)[0] != "Bearer s3cret" {
		t.Fatalf("daemon saw Authorization %v, want [Bearer s3cret]", *auths)
	}
}

// flakyTransport fails the first `failures` round-trips with a plain
// transport error (which net/http wraps in *url.Error, like a refused
// dial) and then delegates to the real transport.
type flakyTransport struct {
	mu       sync.Mutex
	failures int
	calls    int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.failures
	f.mu.Unlock()
	if fail {
		return nil, errors.New("connection reset by peer")
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (f *flakyTransport) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// TestGetRetriesTransientTransportErrors: with WithRetry, idempotent
// GETs ride out transient transport failures; non-idempotent POSTs are
// never replayed on a transport error, with or without retries.
func TestGetRetriesTransientTransportErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(wire.Stats{Jobs: wire.JobCounts{Total: 7}})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	ft := &flakyTransport{failures: 2}
	c := New(ts.URL, WithRetry(3), WithHTTPClient(&http.Client{Transport: ft}))
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("GET through a twice-flaky transport failed: %v", err)
	}
	if st.Jobs.Total != 7 {
		t.Fatalf("stats.Jobs.Total = %d, want 7", st.Jobs.Total)
	}
	if ft.callCount() != 3 {
		t.Fatalf("transport saw %d calls, want 3 (two failures + success)", ft.callCount())
	}

	// Without WithRetry the first transport error is final.
	ft2 := &flakyTransport{failures: 1}
	c2 := New(ts.URL, WithHTTPClient(&http.Client{Transport: ft2}))
	if _, err := c2.Stats(context.Background()); err == nil {
		t.Fatal("GET without retries survived a transport error")
	}
	if ft2.callCount() != 1 {
		t.Fatalf("retry-less client called the transport %d times, want 1", ft2.callCount())
	}

	// POST is not idempotent: a transport error must not be replayed even
	// with retries configured — the sweep may already be running.
	ft3 := &flakyTransport{failures: 1000}
	c3 := New(ts.URL, WithRetry(3), WithHTTPClient(&http.Client{Transport: ft3}))
	_, err = c3.StartSweep(context.Background(), []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)})
	if err == nil {
		t.Fatal("POST through a dead transport succeeded")
	}
	if ft3.callCount() != 1 {
		t.Fatalf("transport saw %d POST attempts, want 1 — transport errors must not replay submissions", ft3.callCount())
	}
}
