package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hotnoc/obs"
	"hotnoc/server/tenant"
)

// schedFixture wires a sched with the given tenant weights/limits and a
// helper to enqueue synthetic jobs.
type schedFixture struct {
	sc   *sched
	seq  int
	st   map[string]*tenantState
	next map[string]int
}

func newSchedFixture(tenants map[string]*tenant.Tenant) *schedFixture {
	f := &schedFixture{sc: newSched(obs.NewRegistry()), st: map[string]*tenantState{}, next: map[string]int{}}
	for id, t := range tenants {
		f.st[id] = f.sc.state(t)
	}
	return f
}

func (f *schedFixture) submit(tenantID string) {
	f.seq++
	f.next[tenantID]++
	id := fmt.Sprintf("%s-%d", tenantID, f.next[tenantID])
	f.sc.enqueue(f.st[tenantID], &queuedJob{j: &job{id: id, tenant: tenantID, seq: f.seq}})
}

// drain dispatches one job at a time through a single slot, completing
// each before the next — a saturated MaxJobs=1 daemon — and returns the
// dispatch order as job ids.
func (f *schedFixture) drain(maxDispatches int) []string {
	var order []string
	for len(order) < maxDispatches {
		ds := f.sc.dispatch(1)
		if len(ds) == 0 {
			break
		}
		d := ds[0]
		order = append(order, d.qj.j.id)
		d.ts.running-- // the job "finishes" immediately, freeing the slot
	}
	return order
}

// TestWFQDeterministicOrder pins the exact dispatch sequence of a
// seeded two-tenant burst at weights 2:1 through one job slot: the
// stride pattern a b a a b a a b…, per-tenant FIFO preserved, identical
// on every run.
func TestWFQDeterministicOrder(t *testing.T) {
	f := newSchedFixture(map[string]*tenant.Tenant{
		"a": {ID: "a", Weight: 2},
		"b": {ID: "b", Weight: 1},
	})
	for i := 0; i < 6; i++ {
		f.submit("a")
	}
	for i := 0; i < 3; i++ {
		f.submit("b")
	}
	got := f.drain(9)
	want := []string{"a-1", "b-1", "a-2", "a-3", "b-2", "a-4", "a-5", "b-3", "a-6"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dispatch order\n got %v\nwant %v", got, want)
	}
	// Re-running the identical burst reproduces the identical order.
	f2 := newSchedFixture(map[string]*tenant.Tenant{
		"a": {ID: "a", Weight: 2},
		"b": {ID: "b", Weight: 1},
	})
	for i := 0; i < 6; i++ {
		f2.submit("a")
	}
	for i := 0; i < 3; i++ {
		f2.submit("b")
	}
	if got2 := f2.drain(9); strings.Join(got2, " ") != strings.Join(got, " ") {
		t.Fatalf("same burst dispatched differently:\nfirst  %v\nsecond %v", got, got2)
	}
}

// TestWFQConvergesToWeights: with both queues saturated, dispatched job
// counts converge to the 2:1 weight ratio in every prefix window.
func TestWFQConvergesToWeights(t *testing.T) {
	f := newSchedFixture(map[string]*tenant.Tenant{
		"a": {ID: "a", Weight: 2},
		"b": {ID: "b", Weight: 1},
	})
	const n = 300
	for i := 0; i < n; i++ {
		f.submit("a")
		f.submit("b")
	}
	order := f.drain(n)
	counts := map[string]int{}
	for i, id := range order {
		counts[id[:1]]++
		// After any settled prefix the share is within one stride of
		// the ideal 2/3 : 1/3 split.
		if i >= 8 {
			aShare := float64(counts["a"]) / float64(i+1)
			if aShare < 0.60 || aShare > 0.72 {
				t.Fatalf("after %d dispatches tenant a holds %.2f of the slots, want ~2/3", i+1, aShare)
			}
		}
	}
	if counts["a"] != 200 || counts["b"] != 100 {
		t.Fatalf("dispatched a=%d b=%d of %d, want 200/100", counts["a"], counts["b"], n)
	}
}

// TestWFQStarvationFreedom: a weight-1 tenant under a saturating
// weight-10 tenant is still dispatched at least once in every window of
// weight_total+1 dispatches.
func TestWFQStarvationFreedom(t *testing.T) {
	f := newSchedFixture(map[string]*tenant.Tenant{
		"big":   {ID: "big", Weight: 10},
		"small": {ID: "small", Weight: 1},
	})
	const n = 220
	for i := 0; i < n; i++ {
		f.submit("big")
	}
	for i := 0; i < n/11+2; i++ {
		f.submit("small")
	}
	order := f.drain(n)
	window := 0
	smalls := 0
	for _, id := range order {
		if strings.HasPrefix(id, "small") {
			smalls++
			window = 0
			continue
		}
		window++
		if window > 11 {
			t.Fatalf("weight-1 tenant starved for %d consecutive dispatches", window)
		}
	}
	if smalls == 0 {
		t.Fatal("weight-1 tenant never dispatched")
	}
}

// TestWFQIdleTenantDoesNotBankCredit: a tenant that sat idle while
// another consumed 50 slots re-joins at the current virtual time — it
// does not get a catch-up monopoly.
func TestWFQIdleTenantDoesNotBankCredit(t *testing.T) {
	f := newSchedFixture(map[string]*tenant.Tenant{
		"busy": {ID: "busy", Weight: 1},
	})
	for i := 0; i < 50; i++ {
		f.submit("busy")
	}
	if got := len(f.drain(50)); got != 50 {
		t.Fatalf("drained %d, want 50", got)
	}
	// "late" joins now, same weight; from here on they alternate
	// rather than late receiving 50 consecutive dispatches.
	f.st["late"] = f.sc.state(&tenant.Tenant{ID: "late", Weight: 1})
	for i := 0; i < 10; i++ {
		f.submit("busy")
		f.submit("late")
	}
	order := f.drain(20)
	for i := 1; i < len(order); i++ {
		if order[i][:4] == order[i-1][:4] {
			t.Fatalf("tenants did not alternate at equal weight: %v", order)
		}
	}
}

// TestWFQRespectsRunningQuota: a tenant at MaxRunning is skipped even
// with the lowest pass; its jobs dispatch as its own finish.
func TestWFQRespectsRunningQuota(t *testing.T) {
	f := newSchedFixture(map[string]*tenant.Tenant{
		"q": {ID: "q", Weight: 5, Limits: tenant.Limits{MaxRunning: 1}},
		"r": {ID: "r", Weight: 1},
	})
	f.submit("q")
	f.submit("q")
	f.submit("r")

	ds := f.sc.dispatch(-1)
	var got []string
	for _, d := range ds {
		got = append(got, d.qj.j.id)
	}
	// q-2 must wait: q's single running slot is taken by q-1.
	if strings.Join(got, " ") != "q-1 r-1" {
		t.Fatalf("dispatched %v, want [q-1 r-1]", got)
	}
	if f.st["q"].eligible() {
		t.Fatal("tenant at its running quota still reports eligible")
	}
	f.st["q"].running--
	ds = f.sc.dispatch(-1)
	if len(ds) != 1 || ds[0].qj.j.id != "q-2" {
		t.Fatalf("freed quota dispatched %v, want q-2", ds)
	}
}

// TestTakeToken: the submit-rate bucket admits Burst immediately, then
// refills at RatePerSec with a whole-second Retry-After when dry.
func TestTakeToken(t *testing.T) {
	ts := &tenantState{limits: tenant.Limits{RatePerSec: 2, Burst: 2}}
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := ts.takeToken(now); !ok {
			t.Fatalf("burst submission %d rejected", i)
		}
	}
	ok, retry := ts.takeToken(now)
	if ok {
		t.Fatal("dry bucket admitted a submission")
	}
	if retry < 1 {
		t.Fatalf("dry bucket advertised Retry-After %d, want >= 1", retry)
	}
	// Half a second refills one token at 2/s.
	if ok, _ := ts.takeToken(now.Add(500 * time.Millisecond)); !ok {
		t.Fatal("refilled bucket rejected a submission")
	}
	// Unlimited tenants never block.
	free := &tenantState{}
	for i := 0; i < 100; i++ {
		if ok, _ := free.takeToken(now); !ok {
			t.Fatal("unlimited tenant rate-limited")
		}
	}
}

// TestQueuedBefore: the queue-position estimate counts earlier-admitted
// jobs across all tenants.
func TestQueuedBefore(t *testing.T) {
	f := newSchedFixture(map[string]*tenant.Tenant{
		"a": {ID: "a"}, "b": {ID: "b"},
	})
	f.submit("a") // seq 1
	f.submit("b") // seq 2
	f.submit("a") // seq 3
	if got := f.sc.queuedBefore(3); got != 2 {
		t.Fatalf("queuedBefore(3) = %d, want 2", got)
	}
	if got := f.sc.queuedBefore(1); got != 0 {
		t.Fatalf("queuedBefore(1) = %d, want 0", got)
	}
}

// TestRemoveQueued: withdrawing a queued job preserves FIFO order of
// the rest and reports absence for dispatched jobs.
func TestRemoveQueued(t *testing.T) {
	f := newSchedFixture(map[string]*tenant.Tenant{"a": {ID: "a"}})
	f.submit("a")
	f.submit("a")
	f.submit("a")
	qj, ok := f.sc.removeQueued(f.st["a"], "a-2")
	if !ok || qj.j.id != "a-2" {
		t.Fatalf("removeQueued(a-2) = %v, %v", qj, ok)
	}
	order := f.drain(2)
	if strings.Join(order, " ") != "a-1 a-3" {
		t.Fatalf("queue after removal drained %v, want [a-1 a-3]", order)
	}
	if _, ok := f.sc.removeQueued(f.st["a"], "a-1"); ok {
		t.Fatal("removeQueued found an already-dispatched job")
	}
}
