package server

import (
	"bufio"
	"context"
	"encoding/json"
	"iter"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/server/wire"
)

// testScale matches the smoke scale the rest of the repo tests at.
const testScale = 8

func testServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func testGrid() []hotnoc.SweepPoint {
	return hotnoc.SweepGrid([]string{"A", "E"}, []hotnoc.Scheme{hotnoc.XYShift(), hotnoc.Rot()}, []int{1, 4})
}

// TestConcurrentClientsShareCharacterization is the service half of the
// acceptance criterion: two concurrent remote sweeps over the same grid
// trigger exactly one NoC characterization per (config, scheme, scale) —
// the daemon's Lab singleflights them — and both clients receive
// outcomes identical to an in-process run.
func TestConcurrentClientsShareCharacterization(t *testing.T) {
	srv, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := testGrid()

	const clients = 2
	outs := make([][]hotnoc.SweepOutcome, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.SweepAll(ctx, pts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	for i := 1; i < clients; i++ {
		if len(outs[i]) != len(pts) {
			t.Fatalf("client %d received %d outcomes, want %d", i, len(outs[i]), len(pts))
		}
		for j := range outs[0] {
			if !reflect.DeepEqual(outs[0][j].Result, outs[i][j].Result) {
				t.Fatalf("clients 0 and %d disagree on point %d", i, j)
			}
		}
	}

	// The same grid in process, swept once, sets the bar: the daemon's
	// decode counter must match it exactly — the concurrent second sweep
	// triggered zero extra NoC characterizations.
	local := hotnoc.NewLab(hotnoc.WithScale(testScale))
	localOuts, err := local.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	stats := srv.labFor(testScale).Stats()
	if stats.Decodes != local.Decodes() {
		t.Fatalf("daemon performed %d NoC decodes for %d concurrent sweeps, want %d (one characterization per config+scheme)",
			stats.Decodes, clients, local.Decodes())
	}
	// 2 configs x 2 schemes = 4 distinct characterizations, requested
	// once per client.
	if got := stats.CacheHits + stats.CacheMisses; got != clients*4 {
		t.Fatalf("%d characterization requests recorded, want %d", got, clients*4)
	}

	// And the remote outcomes match the in-process run bit for bit.
	for j := range localOuts {
		if !reflect.DeepEqual(localOuts[j].Result, outs[0][j].Result) {
			t.Fatalf("remote point %d differs from in-process run", j)
		}
	}
}

// TestSSEOrderingAndProgress: outcomes stream in point order with
// strictly incrementing indices, the metadata Built is shared per
// configuration, and progress events arrive alongside.
func TestSSEOrderingAndProgress(t *testing.T) {
	_, url := testServer(t, Config{})
	var mu sync.Mutex
	counts := map[hotnoc.SweepStage]int{}
	c := client.New(url,
		client.WithScale(testScale),
		client.WithProgress(func(ev hotnoc.Event) {
			mu.Lock()
			counts[ev.Stage]++
			mu.Unlock()
		}))

	pts := testGrid()
	i := 0
	builts := map[string]*hotnoc.Built{}
	for out, err := range c.Sweep(context.Background(), pts) {
		if err != nil {
			t.Fatal(err)
		}
		if out.Point.Config != pts[i].Config || out.Point.Scheme.Name != pts[i].Scheme.Name ||
			out.Point.Blocks != pts[i].Blocks {
			t.Fatalf("stream position %d carries %s/%s/b%d, want %s/%s/b%d", i,
				out.Point.Config, out.Point.Scheme.Name, out.Point.Blocks,
				pts[i].Config, pts[i].Scheme.Name, pts[i].Blocks)
		}
		if b, ok := builts[out.Point.Config]; ok && b != out.Built {
			t.Fatalf("outcomes of config %s do not share one Built", out.Point.Config)
		}
		builts[out.Point.Config] = out.Built
		if out.Built.StaticPeakC == 0 || out.Built.System.Grid.N() == 0 {
			t.Fatalf("outcome %d carries an empty Built summary: %+v", i, out.Built)
		}
		i++
	}
	if i != len(pts) {
		t.Fatalf("stream yielded %d outcomes, want %d", i, len(pts))
	}

	mu.Lock()
	defer mu.Unlock()
	if counts[hotnoc.StageEvaluateDone] != len(pts) {
		t.Fatalf("%d evaluate progress events, want %d", counts[hotnoc.StageEvaluateDone], len(pts))
	}
	if counts[hotnoc.StageCharacterizeDone] != 4 {
		t.Fatalf("%d characterize-done progress events, want 4", counts[hotnoc.StageCharacterizeDone])
	}
}

// TestLateSubscriberReplays: an events stream opened after the job
// finished still replays every outcome in order, terminated by a done
// event — reconnecting clients lose nothing.
func TestLateSubscriberReplays(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := testGrid()[:2]

	id, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, wire.JobDone)

	resp, err := http.Get(url + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q, want text/event-stream", ct)
	}
	var outcomes, dones int
	lastIndex := -1
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:") && event == wire.EventOutcome:
			var m wire.OutcomeMsg
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &m); err != nil {
				t.Fatal(err)
			}
			if m.Index != lastIndex+1 {
				t.Fatalf("replayed outcome %d after %d", m.Index, lastIndex)
			}
			lastIndex = m.Index
			outcomes++
		case strings.HasPrefix(line, "data:") && event == wire.EventDone:
			dones++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if outcomes != len(pts) || dones != 1 {
		t.Fatalf("replay delivered %d outcomes and %d done events, want %d and 1",
			outcomes, dones, len(pts))
	}
}

// TestJobCancelMidSweep: DELETE on a running job cancels its context; the
// stream terminates with an error and the job lands in the canceled
// state without finishing its grid.
func TestJobCancelMidSweep(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	// A wide grid at a slower scale keeps the job running long enough to
	// cancel it deterministically.
	pts := hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), []int{1, 2, 4, 8})
	id, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, id); err != nil {
		t.Fatal(err)
	}
	info := waitForTerminal(t, c, id)
	if info.State != wire.JobCanceled {
		t.Fatalf("job state %q after cancel, want %q", info.State, wire.JobCanceled)
	}
	if info.Done == len(pts) {
		t.Fatal("job delivered its whole grid despite cancellation")
	}
}

// TestGracefulShutdownDrains: Shutdown lets an in-flight job finish and
// rejects new sweeps while draining.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := testGrid()

	id, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()

	// New sweeps must be rejected once draining has begun. Shutdown flips
	// the flag before waiting, but give the goroutine a moment to run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.StartSweep(ctx, pts); err != nil {
			if !strings.Contains(err.Error(), "draining") {
				t.Fatalf("draining server rejected sweep with %v, want a draining error", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting sweeps")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	info, err := c.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != wire.JobDone || info.Done != len(pts) {
		t.Fatalf("drained job ended %q with %d/%d outcomes, want done with all",
			info.State, info.Done, len(pts))
	}
}

// TestFigure1RemoteParity: client.Figure1 marshals to byte-identical JSON
// as Lab.Figure1 at the same scale — the CLI acceptance criterion,
// without the process plumbing.
func TestFigure1RemoteParity(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	configs := []string{"A", "E"}

	remote, err := c.Figure1(ctx, configs)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hotnoc.NewLab(hotnoc.WithScale(testScale)).Figure1(ctx, configs)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if string(rj) != string(lj) {
		t.Fatalf("remote Figure1 JSON differs from in-process run:\nremote %s\nlocal  %s", rj, lj)
	}
}

// TestPlacementRemoteParity: the daemon's placement report matches the
// Lab's bit for bit.
func TestPlacementRemoteParity(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	remote, err := c.Placement(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	local, err := hotnoc.NewLab(hotnoc.WithScale(testScale)).Placement(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatal("remote placement report differs from in-process run")
	}
}

// TestSweepValidation: malformed grids are rejected at submission, not as
// failed jobs.
func TestSweepValidation(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	if _, err := c.StartSweep(ctx, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	bad := []hotnoc.SweepPoint{{Config: "Z", Scheme: hotnoc.Rot()}}
	if _, err := c.StartSweep(ctx, bad); err == nil || !strings.Contains(err.Error(), "point 0") {
		t.Fatalf("unknown config accepted (err %v)", err)
	}
	custom := []hotnoc.SweepPoint{{Config: "A", Scheme: hotnoc.Scheme{Name: "bespoke"}}}
	if _, err := c.StartSweep(ctx, custom); err == nil || !strings.Contains(err.Error(), "bespoke") {
		t.Fatalf("custom scheme crossed the wire (err %v)", err)
	}
}

// TestEarlyBreakCancelsJob: a consumer breaking out of the sweep iterator
// cancels the server-side job instead of leaving it simulating for
// nobody.
func TestEarlyBreakCancelsJob(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), []int{1, 2, 4, 8})

	for range c.Sweep(ctx, pts) {
		break
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%d jobs registered, want 1", len(jobs))
	}
	info := waitForTerminal(t, c, jobs[0].ID)
	if info.State == wire.JobRunning {
		t.Fatalf("job still running after consumer broke early")
	}
}

// mixedTestGrid interleaves periodic and reactive points over two
// (config, scheme) pairs.
func mixedTestGrid() []hotnoc.SweepPoint {
	return []hotnoc.SweepPoint{
		hotnoc.PeriodicPoint("A", hotnoc.XYShift(), 1),
		hotnoc.ReactivePoint("A", hotnoc.ReactiveConfig{
			Scheme: hotnoc.XYShift(), TriggerC: 84, SimBlocks: 200, WarmupBlocks: 100}),
		hotnoc.PeriodicPoint("A", hotnoc.Rot(), 4),
		hotnoc.ReactivePoint("A", hotnoc.ReactiveConfig{
			Scheme: hotnoc.Rot(), TriggerC: 83, SimBlocks: 200, WarmupBlocks: 100}),
		hotnoc.PeriodicPoint("A", hotnoc.XYShift(), 8),
	}
}

// TestMixedGridRemoteParity is the PR's acceptance criterion: a mixed
// periodic+reactive grid submitted through the client streams outcomes in
// point order, byte-identical (JSON) to the same grid run through an
// in-process Lab, and a repeat submission on the daemon's warm cache
// performs zero extra NoC decodes — asserted through /v1/stats.
func TestMixedGridRemoteParity(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := mixedTestGrid()

	var remote []hotnoc.SweepOutcome
	i := 0
	for out, err := range c.Sweep(ctx, pts) {
		if err != nil {
			t.Fatal(err)
		}
		if out.Point.Kind() != pts[i].Kind() || out.Point.Scheme.Name != pts[i].Scheme.Name {
			t.Fatalf("stream position %d carries %s/%s, want %s/%s", i,
				out.Point.Kind(), out.Point.Scheme.Name, pts[i].Kind(), pts[i].Scheme.Name)
		}
		remote = append(remote, out)
		i++
	}
	if i != len(pts) {
		t.Fatalf("stream yielded %d outcomes, want %d", i, len(pts))
	}

	localLab := hotnoc.NewLab(hotnoc.WithScale(testScale))
	local, err := localLab.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range local {
		lr, err := json.Marshal(struct {
			Result   hotnoc.RunResult       `json:"result"`
			Reactive *hotnoc.ReactiveResult `json:"reactive"`
		}{local[j].Result, local[j].Reactive})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := json.Marshal(struct {
			Result   hotnoc.RunResult       `json:"result"`
			Reactive *hotnoc.ReactiveResult `json:"reactive"`
		}{remote[j].Result, remote[j].Reactive})
		if err != nil {
			t.Fatal(err)
		}
		if string(lr) != string(rr) {
			t.Fatalf("point %d: remote outcome differs from in-process run:\nremote %s\nlocal  %s", j, rr, lr)
		}
	}

	// Warm repeat: the daemon already characterized both orbits; the
	// decode counter on /v1/stats must not move.
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SweepAll(ctx, pts); err != nil {
		t.Fatal(err)
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Labs) != 1 || len(after.Labs) != 1 {
		t.Fatalf("stats list %d/%d labs, want 1/1", len(before.Labs), len(after.Labs))
	}
	if after.Labs[0].Decodes != before.Labs[0].Decodes {
		t.Fatalf("warm mixed sweep performed %d extra NoC decodes, want 0",
			after.Labs[0].Decodes-before.Labs[0].Decodes)
	}
	// 2 distinct (config, scheme) pairs across 5 points of 2 kinds: the
	// daemon decoded exactly what the in-process Lab did.
	if before.Labs[0].Decodes != localLab.Decodes() {
		t.Fatalf("daemon performed %d decodes for the mixed grid, want %d (one characterization per config+scheme)",
			before.Labs[0].Decodes, localLab.Decodes())
	}
}

// TestDaemonRestartWarmStartsBuilds: a second daemon over the first
// daemon's cache directory performs zero annealing/calibration work —
// every build reconstitutes from its persisted snapshot, asserted
// through the build counters on /v1/stats — and serves outcomes
// identical to the cold daemon's.
func TestDaemonRestartWarmStartsBuilds(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	pts := testGrid()

	_, url1 := testServer(t, Config{CacheDir: dir})
	c1 := client.New(url1, client.WithScale(testScale))
	cold, err := c1.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server process state over the same directory.
	_, url2 := testServer(t, Config{CacheDir: dir})
	c2 := client.New(url2, client.WithScale(testScale))
	warm, err := c2.SweepAll(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Labs) != 1 {
		t.Fatalf("stats list %d labs, want 1", len(st.Labs))
	}
	lab := st.Labs[0]
	if lab.BuildMisses != 0 || lab.BuildHits != 2 {
		t.Fatalf("restarted daemon built cold: %d hits / %d misses, want 2 / 0",
			lab.BuildHits, lab.BuildMisses)
	}
	if lab.Decodes != 0 || lab.CacheMisses != 0 {
		t.Fatalf("restarted daemon re-simulated: %d decodes, %d characterization misses, want 0 / 0",
			lab.Decodes, lab.CacheMisses)
	}
	for j := range cold {
		if !reflect.DeepEqual(cold[j].Result, warm[j].Result) {
			t.Fatalf("point %d: restarted daemon's outcome differs", j)
		}
	}
}

// TestReactiveRemoteParity: client.Reactive through the daemon is bitwise
// identical to Lab.Reactive in process, and shares the daemon's
// characterization cache with periodic sweeps at the same scale.
func TestReactiveRemoteParity(t *testing.T) {
	srv, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	cfgs := []hotnoc.ReactiveConfig{
		{Scheme: hotnoc.XYShift(), TriggerC: 84, SimBlocks: 200, WarmupBlocks: 100},
		{Scheme: hotnoc.XYShift(), TriggerC: 82, SimBlocks: 200, WarmupBlocks: 100},
		{Scheme: hotnoc.Rot(), TriggerC: 85, SimBlocks: 200, WarmupBlocks: 100},
	}

	remote, err := c.Reactive(ctx, "A", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hotnoc.NewLab(hotnoc.WithScale(testScale)).Reactive(ctx, "A", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatal("remote reactive results differ from in-process Lab.Reactive")
	}

	// A periodic sweep over the same schemes is served from the
	// characterizations the reactive job just paid for.
	decodes := srv.labFor(testScale).Stats().Decodes
	if _, err := c.SweepAll(ctx, hotnoc.SweepGrid([]string{"A"},
		[]hotnoc.Scheme{hotnoc.XYShift(), hotnoc.Rot()}, []int{1, 4})); err != nil {
		t.Fatal(err)
	}
	if got := srv.labFor(testScale).Stats().Decodes; got != decodes {
		t.Fatalf("periodic sweep re-simulated %d decodes after reactive job, want 0", got-decodes)
	}
}

// TestSweepValidationNamesReactivePoint: a malformed reactive point is a
// 400 naming its index at submission, not a job failing mid-stream.
func TestSweepValidationNamesReactivePoint(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	bad := hotnoc.ReactivePoint("A", hotnoc.ReactiveConfig{Scheme: hotnoc.Rot(), TriggerC: 80})
	bad.Blocks = 4 // periodic field on a reactive point
	pts := []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1), bad}
	if _, err := c.StartSweep(ctx, pts); err == nil ||
		!strings.Contains(err.Error(), "point 1") {
		t.Fatalf("malformed reactive point not rejected with its index (err %v)", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected submission still registered %d jobs", len(jobs))
	}
}

// TestMaxJobsQueuesAtSaturation: at the concurrent-job bound, POST
// /v1/sweeps admits the job in the queued state — reporting its queue
// position — instead of rejecting it, and the scheduler dispatches it
// once the running job frees the slot.
func TestMaxJobsQueuesAtSaturation(t *testing.T) {
	_, url := testServer(t, Config{MaxJobs: 1})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	// A wide grid keeps the only slot busy while we probe the bound.
	wide := hotnoc.SweepGrid([]string{"A", "B", "C", "D", "E"}, hotnoc.Schemes(), []int{1, 2, 4, 8})
	blocker, err := c.StartSweep(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(wire.SweepRequest{Scale: testScale, Points: []wire.PointSpec{
		{Config: "A", Scheme: "Rot", Blocks: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("saturated daemon answered %d, want 201 (the job queues)", resp.StatusCode)
	}
	var created wire.SweepCreated
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.State != wire.JobQueued || created.QueuePos != 1 {
		t.Fatalf("saturated submission admitted as %q at position %d, want queued at 1",
			created.State, created.QueuePos)
	}

	// The job info surfaces the same queue position; stats count it.
	info, err := c.Job(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != wire.JobQueued || info.QueuePos != 1 {
		t.Fatalf("queued job reports %q at position %d, want queued at 1", info.State, info.QueuePos)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Limits.MaxJobs != 1 {
		t.Fatalf("stats echo max_jobs %d, want 1", st.Limits.MaxJobs)
	}
	if st.Jobs.Queued != 1 || st.Jobs.Running != 1 {
		t.Fatalf("stats count %d queued / %d running, want 1 / 1", st.Jobs.Queued, st.Jobs.Running)
	}

	// Freeing the slot dispatches the queued job without a resubmission.
	if _, err := c.CancelJob(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, created.ID, wire.JobDone)
}

// TestRetentionCapsFinishedJobs: RetainJobs bounds how many finished jobs
// stay addressable — the oldest-finished are forgotten like a client
// DELETE — and RetainFor expires them by age.
func TestRetentionCapsFinishedJobs(t *testing.T) {
	_, url := testServer(t, Config{RetainJobs: 1})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	pts := testGrid()[:1]

	first, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, first, wire.JobDone)
	second, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, second, wire.JobDone)

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != second {
		t.Fatalf("retention kept %d jobs (first %v), want only the newest %s", len(jobs), jobs, second)
	}
	if jobs[0].FinishedAt.IsZero() {
		t.Fatal("finished job reports no finished_at timestamp")
	}
	if _, err := c.Job(ctx, first); err == nil {
		t.Fatalf("evicted job %s still addressable", first)
	}
}

// TestRetentionTTLExpiresJobs: a finished job older than RetainFor is
// forgotten on the next listing.
func TestRetentionTTLExpiresJobs(t *testing.T) {
	_, url := testServer(t, Config{RetainFor: 50 * time.Millisecond})
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	id, err := c.StartSweep(ctx, testGrid()[:1])
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, id, wire.JobDone)
	time.Sleep(100 * time.Millisecond)
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("expired job still listed: %v", jobs)
	}
}

// waitForState polls until the job reaches state or the test times out.
func waitForState(t *testing.T, c *client.Client, id, state string) wire.JobInfo {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		info, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == state {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, info.State, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForTerminal polls until the job reaches a terminal state.
func waitForTerminal(t *testing.T, c *client.Client, id string) wire.JobInfo {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		info, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != wire.JobRunning && info.State != wire.JobQueued {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left the %s state", id, info.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUnmarshalableOutcomeFailsJob: an outcome that cannot be encoded on
// the wire (a non-finite temperature) fails the job, naming the outcome,
// instead of being dropped from a stream that then reports done.
func TestUnmarshalableOutcomeFailsJob(t *testing.T) {
	srv, url := testServer(t, Config{})
	srv.sweepHook = func(int) sweepFn {
		return func(ctx context.Context, pts []hotnoc.SweepPoint, progress func(hotnoc.Event)) iter.Seq2[hotnoc.SweepOutcome, error] {
			return func(yield func(hotnoc.SweepOutcome, error) bool) {
				for i, p := range pts {
					out := hotnoc.SweepOutcome{Point: p, Built: &chipcfg.Built{System: &core.System{}}}
					if i == 0 {
						out.Result.MigratedPeakC = math.Inf(1)
					}
					if !yield(out, nil) {
						return
					}
				}
			}
		}
	}
	c := client.New(url, client.WithScale(testScale))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	pts := []hotnoc.SweepPoint{
		{Config: "A", Scheme: hotnoc.Rot(), Blocks: 1},
		{Config: "A", Scheme: hotnoc.Rot(), Blocks: 4},
	}
	if _, err := c.SweepAll(ctx, pts); err == nil || !strings.Contains(err.Error(), "outcome 0") {
		t.Fatalf("SweepAll err = %v, want the job's failure naming outcome 0", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%d jobs listed, want 1", len(jobs))
	}
	j := jobs[0]
	if j.State != wire.JobFailed || j.Done != 0 || !strings.Contains(j.Error, "outcome 0") {
		t.Fatalf("job state=%s done=%d/%d error=%q, want failed 0/2 naming outcome 0",
			j.State, j.Done, j.Points, j.Error)
	}
}
