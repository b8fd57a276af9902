package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/server/tenant"
	"hotnoc/server/wire"
)

// waitStats polls /v1/stats until done accepts the snapshot. A job's
// terminal state is visible a moment before its tenant's accounting.
func waitStats(t *testing.T, c *client.Client, done func(wire.Stats) bool) wire.Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tenantRow returns the row of one tenant, or a zero row.
func tenantRow(st wire.Stats, id string) wire.TenantStats {
	for _, ts := range st.Tenants {
		if ts.ID == id {
			return ts
		}
	}
	return wire.TenantStats{}
}

// TestStatsMatchMetrics: Lab.Stats, /v1/stats and /metrics are three
// views of one set of counters. After a sweep and one throttled 429,
// every LabStats counter on /v1/stats equals the Lab's own snapshot and
// its /metrics series, and every TenantStats counter equals its
// hotnocd_*_total{tenant,…} series.
func TestStatsMatchMetrics(t *testing.T) {
	ci := keyed("ci", 1, tenant.Limits{})
	throttled := keyed("throttled", 1, tenant.Limits{RatePerSec: 0.25, Burst: 1})
	srv, url := testServer(t, Config{Tenants: testRegistry(t, []*tenant.Tenant{ci, throttled}, nil)})
	frozen := time.Now()
	srv.now = func() time.Time { return frozen }

	c := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-ci"))
	if _, err := c.SweepAll(context.Background(), testGrid()[:2]); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{http.StatusCreated, http.StatusTooManyRequests} {
		resp := postSweep(t, url, "Bearer key-throttled")
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("throttled submission %d answered %d, want %d", i, resp.StatusCode, want)
		}
	}
	st := waitStats(t, c, func(st wire.Stats) bool {
		return tenantRow(st, "ci").Done == 1 && tenantRow(st, "throttled").Done == 1
	})
	if got := tenantRow(st, "throttled").Rejected; got != 1 {
		t.Fatalf("throttled tenant counts %d rejections, want 1", got)
	}
	if got := tenantRow(st, "ci").Points; got != 2 {
		t.Fatalf("ci tenant counts %d points, want 2", got)
	}

	body := scrapeMetrics(t, url)
	if len(st.Labs) != 1 {
		t.Fatalf("stats list %d Labs, want 1", len(st.Labs))
	}
	ls := st.Labs[0]
	if own := srv.labFor(testScale).Stats(); own != ls {
		t.Errorf("Lab.Stats %+v differs from /v1/stats %+v", own, ls)
	}
	cache := func(kind, result string) string {
		return fmt.Sprintf(`hotnoc_cache_requests_total{kind=%q,result=%q,scale="%d"}`, kind, result, ls.Scale)
	}
	for series, v := range map[string]uint64{
		fmt.Sprintf(`hotnoc_decodes_total{scale="%d"}`, ls.Scale): ls.Decodes,
		cache("characterization", "hit"):                          ls.CacheHits,
		cache("characterization", "miss"):                         ls.CacheMisses,
		cache("build", "hit"):                                     ls.BuildHits,
		cache("build", "miss"):                                    ls.BuildMisses,
	} {
		if m := metricValue(t, body, series); m != float64(v) {
			t.Errorf("%s = %v on /metrics, %d on /v1/stats", series, m, v)
		}
	}
	if ls.Decodes == 0 || ls.BuildMisses == 0 {
		t.Errorf("the sweep recorded no work: %+v", ls)
	}

	for _, ts := range st.Tenants {
		jobs := func(state string) string {
			return fmt.Sprintf(`hotnocd_jobs_total{state=%q,tenant=%q}`, state, ts.ID)
		}
		for series, v := range map[string]int64{
			jobs(wire.JobDone):     int64(ts.Done),
			jobs(wire.JobFailed):   int64(ts.Failed),
			jobs(wire.JobCanceled): int64(ts.Canceled),
			fmt.Sprintf(`hotnocd_submissions_rejected_total{tenant=%q}`, ts.ID): int64(ts.Rejected),
			fmt.Sprintf(`hotnocd_points_total{tenant=%q}`, ts.ID):               ts.Points,
		} {
			if m := metricValue(t, body, series); m != float64(v) {
				t.Errorf("%s = %v on /metrics, %d on /v1/stats", series, m, v)
			}
		}
	}
}

// TestFleetStatsMatchMetrics: on a two-worker coordinator, the Lab
// counters aggregated on /v1/stats equal the hotnocd_fleet_*_total
// series of /metrics.
func TestFleetStatsMatchMetrics(t *testing.T) {
	_, coordURL, _ := startFleet(t, 2)
	runToCompletion(t, coordURL, testGrid())

	st, err := client.New(coordURL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body := scrapeMetrics(t, coordURL)
	var sum hotnoc.LabStats
	for _, ls := range st.Labs {
		sum.Decodes += ls.Decodes
		sum.CacheHits += ls.CacheHits
		sum.CacheMisses += ls.CacheMisses
		sum.BuildHits += ls.BuildHits
		sum.BuildMisses += ls.BuildMisses
	}
	for series, v := range map[string]uint64{
		"hotnocd_fleet_decodes_total":      sum.Decodes,
		"hotnocd_fleet_cache_hits_total":   sum.CacheHits,
		"hotnocd_fleet_cache_misses_total": sum.CacheMisses,
		"hotnocd_fleet_build_hits_total":   sum.BuildHits,
		"hotnocd_fleet_build_misses_total": sum.BuildMisses,
	} {
		if m := metricValue(t, body, series); m != float64(v) {
			t.Errorf("%s = %v on /metrics, %d on /v1/stats", series, m, v)
		}
	}
	if sum.CacheMisses != 4 || sum.BuildMisses != 2 {
		t.Errorf("fleet stats %+v, want exactly 4 characterization and 2 build misses", sum)
	}
}
