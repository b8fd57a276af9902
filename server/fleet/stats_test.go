package fleet

import (
	"testing"

	"hotnoc"
	"hotnoc/server/wire"
)

func labStats(scale int, decodes, cacheMisses uint64) wire.Stats {
	return wire.Stats{Labs: []hotnoc.LabStats{{
		Scale: scale, Decodes: decodes, CacheMisses: cacheMisses,
	}}}
}

// TestLedgerMonotonicAcrossRestart: a worker whose counters regress —
// the restart signature — keeps its previous incarnation's final
// snapshot banked, so the fleet totals only ever grow.
func TestLedgerMonotonicAcrossRestart(t *testing.T) {
	l := newStatsLedger()
	l.observe("http://w1", labStats(8, 100, 4))
	l.observe("http://w2", labStats(8, 50, 2))

	if tot := l.stats(nil).Labs[0]; tot.Decodes != 150 || tot.CacheMisses != 6 {
		t.Fatalf("totals before restart = %+v, want 150 decodes / 6 misses", tot)
	}

	// w1 restarts: its counters start over from a smaller value. The 100
	// decodes of the dead incarnation must stay counted.
	l.observe("http://w1", labStats(8, 10, 1))
	if tot := l.stats(nil).Labs[0]; tot.Decodes != 160 || tot.CacheMisses != 7 {
		t.Fatalf("totals after restart = %+v, want 160 decodes / 7 misses", tot)
	}

	// Progress within the new incarnation accumulates normally.
	l.observe("http://w1", labStats(8, 30, 1))
	if tot := l.stats(nil).Labs[0]; tot.Decodes != 180 {
		t.Fatalf("totals after post-restart progress = %+v, want 180 decodes", tot)
	}

	// An unchanged snapshot (idempotent poll) adds nothing.
	l.observe("http://w1", labStats(8, 30, 1))
	if tot := l.stats(nil).Labs[0]; tot.Decodes != 180 {
		t.Fatalf("totals after repeated snapshot = %+v, want 180 decodes", tot)
	}
}

// TestLedgerPerWorker: the per-worker view is sorted by URL, sums a
// worker's scales, and spans incarnations.
func TestLedgerPerWorker(t *testing.T) {
	l := newStatsLedger()
	l.observe("http://wb", labStats(8, 5, 0))
	l.observe("http://wa", wire.Stats{Labs: []hotnoc.LabStats{
		{Scale: 8, Decodes: 10},
		{Scale: 16, Decodes: 3},
	}})
	l.observe("http://wa", labStats(8, 2, 0)) // scale-8 restart; scale 16 unreported

	var urls []string
	var decodes []float64
	for _, s := range l.perWorker() {
		if s.Name == "decodes" {
			urls = append(urls, s.Labels["worker"])
			decodes = append(decodes, s.Value)
		}
	}
	if len(urls) != 2 || urls[0] != "http://wa" || urls[1] != "http://wb" {
		t.Fatalf("perWorker urls = %v, want sorted [wa wb]", urls)
	}
	// wa: banked 10 (scale 8, old incarnation) + 2 live + 3 (scale 16).
	if decodes[0] != 15 {
		t.Fatalf("wa decodes = %v, want 15", decodes[0])
	}
	if decodes[1] != 5 {
		t.Fatalf("wb decodes = %v, want 5", decodes[1])
	}
}

// TestLedgerTenantTotals: tenant counters are summed monotonically like
// lab counters, while the weight is the latest observation — it is
// configuration, not history.
func TestLedgerTenantTotals(t *testing.T) {
	l := newStatsLedger()
	l.observe("http://w1", wire.Stats{Tenants: []wire.TenantStats{
		{ID: "ci", Weight: 3, Done: 4, Rejected: 1, Points: 40},
	}})
	l.observe("http://w2", wire.Stats{Tenants: []wire.TenantStats{
		{ID: "ci", Weight: 3, Done: 2, Points: 20},
	}})
	// w1 restarts and the tenant's weight was reconfigured meanwhile.
	l.observe("http://w1", wire.Stats{Tenants: []wire.TenantStats{
		{ID: "ci", Weight: 5, Done: 1, Points: 10},
	}})

	ci := l.stats(nil).Tenants[0]
	if ci.Done != 7 || ci.Rejected != 1 || ci.Points != 70 {
		t.Fatalf("tenant totals = %+v, want 7 done / 1 rejected / 70 points", ci)
	}
	if ci.Weight != 5 {
		t.Fatalf("tenant weight = %d, want the latest observation (5)", ci.Weight)
	}
}

// TestLedgerRestartAcrossCounterGroups: a restart shows in any of a
// worker's series. This incarnation already passed the old decode count
// when it is polled, but its tenant counter fell, so the whole previous
// snapshot is banked and the old decodes stay counted.
func TestLedgerRestartAcrossCounterGroups(t *testing.T) {
	l := newStatsLedger()
	snapshot := func(decodes uint64, done int) wire.Stats {
		return wire.Stats{
			Labs:    []hotnoc.LabStats{{Scale: 8, Decodes: decodes}},
			Tenants: []wire.TenantStats{{ID: "anonymous", Weight: 1, Done: done}},
		}
	}
	l.observe("http://w1", snapshot(100, 5))
	l.observe("http://w1", snapshot(150, 1))

	st := l.stats(nil)
	if got := st.Labs[0].Decodes; got != 250 {
		t.Errorf("decodes = %d, want 250 (100 banked + 150 live)", got)
	}
	if got := st.Tenants[0].Done; got != 6 {
		t.Errorf("done = %d, want 6 (5 banked + 1 live)", got)
	}
}
