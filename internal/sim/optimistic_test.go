package sim

// Optimistic-engine determinism and robustness: Time Warp execution
// must be bit-identical to the serial reference — same job records
// (hex-float compare), same series, same counters, same event count —
// on random federations, under faults, at MaxTime boundaries and on the
// degenerate platforms that fall back to the serial kernel; its
// speculation machinery — rollback, commit fences, adaptive windows —
// must actually engage on workloads with cross-site traffic rather
// than degenerating to lockstep; and cancellation must return promptly
// with no worker goroutines left behind.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
	"netbatch/internal/stats"
)

// fingerprint renders every observable float of a Result in hex so
// comparison is bit-exact, not approximate.
func fingerprint(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan=%x events=%d pre=%d restarts=%d mig=%d waitmoves=%d xsub=%d xmove=%d\n",
		res.Makespan, res.Events, res.Preemptions, res.Restarts, res.Migrations,
		res.WaitMoves, res.CrossSiteSubmits, res.CrossSiteMoves)
	fmt.Fprintf(&sb, "crashes=%d maint=%d kills=%d requeues=%d worklost=%x downcm=%x\n",
		res.Crashes, res.MaintWindows, res.Kills, res.Requeues, res.WorkLost, res.DownCoreMinutes)
	for _, j := range res.Jobs {
		a := j.Acct()
		fmt.Fprintf(&sb, "job %d: pool=%d mach=%d first=%x done=%x w=%x s=%x we=%x ro=%x e=%x sus=%d re=%d wr=%d k=%d\n",
			j.Spec.ID, j.Pool, j.Machine, j.FirstStart, j.Completed,
			a.Wait, a.Suspend, a.WastedExec, a.RescheduleOverhead, a.Exec,
			a.Suspensions, a.Restarts, a.WaitReschedules, a.Kills)
	}
	series := func(name string, ts *stats.TimeSeries) {
		if ts == nil {
			fmt.Fprintf(&sb, "%s: nil\n", name)
			return
		}
		fmt.Fprintf(&sb, "%s:", name)
		for _, p := range ts.Points() {
			fmt.Fprintf(&sb, " %x/%x", p.X, p.Y)
		}
		sb.WriteString("\n")
	}
	series("util", res.Util)
	series("susp", res.Suspended)
	series("wait", res.Waiting)
	for s, ts := range res.SiteUtil {
		series(fmt.Sprintf("site%d", s), ts)
	}
	return sb.String()
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\nserial: %.200s\nother:  %.200s", i+1, x, y)
		}
	}
	return "(no diff)"
}

// federatedInitial builds the two-level scheduler used by the
// multi-site experiment cells.
func federatedInitial(sel sched.SiteSelector) sched.InitialScheduler {
	return sched.NewFederated(sel, func() sched.InitialScheduler {
		return sched.NewRoundRobin()
	})
}

func multiSitePolicyForIndex(i int, seed uint64) core.Policy {
	switch i % 4 {
	case 0:
		return core.NewNoRes()
	case 1:
		return core.NewResSusWaitUtil()
	case 2:
		return core.NewResSusWaitRand(seed)
	default:
		return core.NewResSusWaitLatency()
	}
}

func TestOptimisticMatchesSerialRandomFederations(t *testing.T) {
	checkOptimisticMatchesSerial(t)
}

// TestParallelMatchesSerialRandomFederations runs the same property
// with at least two Ps, so the optimistic engine takes its parallel
// burst-worker path even on a single-CPU host, where the default
// GOMAXPROCS would keep every burst inline.
func TestParallelMatchesSerialRandomFederations(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	checkOptimisticMatchesSerial(t)
}

// checkOptimisticMatchesSerial compares optimistic against serial runs
// on random federations, policies, site selectors and staleness
// settings, bit for bit.
func checkOptimisticMatchesSerial(t *testing.T) {
	t.Helper()
	runs, skips := 0, 0
	cfgQuick := &quick.Config{MaxCount: 24}
	err := quick.Check(func(seed uint64, polPick, selPick uint8, staleness uint8) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Logf("workload: %v", err)
			return false
		}
		base := Config{
			Platform:          plat,
			Initial:           federatedInitial(siteSelectorForIndex(int(selPick))),
			Policy:            multiSitePolicyForIndex(int(polPick), seed),
			UtilStaleness:     float64(staleness % 40),
			CheckConservation: true,
		}
		serialRes, err := Run(base, specs)
		if err != nil {
			t.Logf("serial: %v", err)
			return false
		}
		opt := base
		opt.Engine = EngineOptimistic
		opt.Initial = federatedInitial(siteSelectorForIndex(int(selPick)))
		opt.Policy = multiSitePolicyForIndex(int(polPick), seed)
		optRes, err := Run(opt, specs)
		if err != nil {
			t.Logf("optimistic: %v", err)
			return false
		}
		runs++
		if optRes.ambiguousTies {
			skips++
			t.Logf("seed %d: ambiguous tie observed, skipping comparison", seed)
			return true
		}
		a, b := fingerprint(serialRes), fingerprint(optRes)
		if a != b {
			t.Logf("seed %d sel %d pol %d: serial and optimistic results differ:\n%s",
				seed, selPick%3, polPick%4, firstDiff(a, b))
			return false
		}
		return true
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
	if runs > 0 && skips == runs {
		t.Errorf("all %d runs skipped as ambiguous ties: bit-identity was never actually compared", runs)
	}
}

// TestEngineFallbackDegeneratePlatforms pins the Δ=0 edge for the
// optimistic engine: a single-site platform, a federation with one
// zero-RTT cross-site pair, and a decision delay exceeding the
// lookahead all make parallelizable() false, and Run must route them
// to the serial kernel — producing bit-identical results, never
// spinning at a zero-width horizon or rejecting the config.
func TestEngineFallbackDegeneratePlatforms(t *testing.T) {
	sites := func(rtt [][]float64) *cluster.Platform {
		configs := make([]cluster.PoolConfig, len(rtt))
		for s := range configs {
			configs[s] = cluster.PoolConfig{
				Site:    string(rune('A' + s)),
				Classes: []cluster.MachineClass{{Count: 2, Cores: 1, MemMB: 8192, Speed: 1.0}},
			}
		}
		p, err := cluster.Build(configs)
		if err != nil {
			t.Fatal(err)
		}
		if p, err = p.WithRTT(rtt); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"single-site", func() Config { return baseConfig(miniPlatform(t, 2, 2)) }},
		{"zero-rtt-pair", func() Config {
			// Sites A, B, C with the A<->B delay degenerate at zero:
			// one bad edge is enough to void the whole lookahead.
			cfg := baseConfig(sites([][]float64{
				{0, 0, 5},
				{0, 0, 5},
				{5, 5, 0},
			}))
			cfg.Initial = federatedInitial(siteSelectorForIndex(0))
			return cfg
		}},
		{"decision-delay-exceeds-lookahead", func() Config {
			cfg := baseConfig(sites([][]float64{
				{0, 5},
				{5, 0},
			}))
			cfg.Initial = federatedInitial(siteSelectorForIndex(0))
			cfg.DecisionDelay = 10
			return cfg
		}},
	}
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		lowJob(2, 1.5, 80, 0, 1),
		highJob(3, 2.5, 50, 0),
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialRes, err := Run(tc.cfg(), specs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg()
			cfg.Engine = EngineOptimistic
			res, err := Run(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(serialRes) != fingerprint(res) {
				t.Fatal("optimistic fallback differs from serial")
			}
		})
	}
}

// TestParallelFallbackSingleSite pins that a single-site platform
// asked to run on the optimistic engine with parallel workers available
// runs on the serial kernel: the results are bit-identical to serial
// and none of the optimistic engine's execution counters are set.
func TestParallelFallbackSingleSite(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	p := miniPlatform(t, 2, 2)
	specs := []job.Spec{
		lowJob(1, 0, 100, 0, 1),
		lowJob(2, 1.5, 80, 0, 1),
		highJob(3, 2.5, 50, 0),
	}
	base := baseConfig(p)
	serialRes, err := Run(base, specs)
	if err != nil {
		t.Fatal(err)
	}
	opt := baseConfig(p)
	opt.Engine = EngineOptimistic
	optRes, err := Run(opt, specs)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(serialRes) != fingerprint(optRes) {
		t.Fatal("single-site optimistic fallback differs from serial")
	}
	if optRes.GroupCommitSize != nil || optRes.Rollbacks != 0 {
		t.Fatalf("single-site run used the optimistic engine: group commits %v, rollbacks %d",
			optRes.GroupCommitSize, optRes.Rollbacks)
	}
}

// TestOptimisticRollbackMachinery drives the full Time Warp cycle —
// snapshot push, restore through the reverse-delta chain, replay —
// hard, and proves it invisible. In production the burst cap at the
// earliest known decision time makes rollbacks rare (only decisions
// armed mid-burst trigger them), and single-P runs avoid speculation
// entirely; this test forces the worker path and removes the cap, so
// every deciding commit rolls overshooting shards back, on workloads
// whose serial fingerprints are known. Identical results plus nonzero
// rollback counters mean the machinery both engaged and healed.
func TestOptimisticRollbackMachinery(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	optUncapped = true
	defer func() { optUncapped = false }()
	snaps0, rolls0 := optSnapshots.Load(), optRollbacks.Load()

	compared := 0
	for seed := uint64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewPCG(seed, seed*0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Fatalf("seed %d: workload: %v", seed, err)
		}
		base := Config{
			Platform:          plat,
			Initial:           federatedInitial(siteSelectorForIndex(int(seed % 3))),
			Policy:            multiSitePolicyForIndex(int(seed%4), seed),
			UtilStaleness:     float64(seed * 5 % 40),
			CheckConservation: true,
		}
		serialRes, err := Run(base, specs)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		opt := base
		opt.Engine = EngineOptimistic
		opt.Initial = federatedInitial(siteSelectorForIndex(int(seed % 3)))
		opt.Policy = multiSitePolicyForIndex(int(seed%4), seed)
		optRes, err := Run(opt, specs)
		if err != nil {
			t.Fatalf("seed %d: optimistic: %v", seed, err)
		}
		if optRes.ambiguousTies {
			t.Logf("seed %d: ambiguous tie observed, skipping comparison", seed)
			continue
		}
		compared++
		if a, b := fingerprint(serialRes), fingerprint(optRes); a != b {
			t.Fatalf("seed %d: uncapped speculation diverged from serial:\n%s", seed, firstDiff(a, b))
		}
	}
	if compared == 0 {
		t.Fatal("every workload skipped as ambiguous: rollback bit-identity was never compared")
	}
	if snaps := optSnapshots.Load() - snaps0; snaps == 0 {
		t.Error("no rollback snapshots were pushed: speculation never left the certain region")
	}
	if rolls := optRollbacks.Load() - rolls0; rolls == 0 {
		t.Error("no rollbacks occurred: the uncapped window never overshot a commit")
	}
}

// TestOptimisticCancelNoLeak pins prompt cancellation return and
// goroutine hygiene for a run canceled before it starts.
func TestOptimisticCancelNoLeak(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(Config{
		Platform: plat,
		Initial:  federatedInitial(siteSelectorForIndex(0)),
		Policy:   multiSitePolicyForIndex(1, 7),
		Engine:   EngineOptimistic,
		Context:  ctx,
	}, specs)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestParallelMaxTimeParity pins the failure law shared by both
// engines: a run whose makespan fits under MaxTime succeeds on both,
// and one that does not fails on both — even when the cap falls just
// past the makespan, where the optimistic shards may already have
// speculated over inert post-completion events the serial loop never
// pops.
func TestParallelMaxTimeParity(t *testing.T) {
	for _, seed := range []uint64{57, 58, 59, 7} {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(engine string, maxTime float64) Config {
			return Config{
				Platform:          plat,
				Initial:           federatedInitial(sched.LocalityFirst{}),
				Policy:            core.NewResSusWaitUtil(),
				Engine:            engine,
				MaxTime:           maxTime,
				CheckConservation: true,
			}
		}
		base, err := Run(mk(EngineSerial, 0), specs)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		for _, maxTime := range []float64{
			base.Makespan + 0.15, // just past the makespan
			base.Makespan * 0.75, // clearly too small
		} {
			sres, serr := Run(mk(EngineSerial, maxTime), specs)
			ores, oerr := Run(mk(EngineOptimistic, maxTime), specs)
			if (serr == nil) != (oerr == nil) {
				t.Fatalf("seed %d MaxTime %v: engines disagree: serial=%v optimistic=%v",
					seed, maxTime, serr, oerr)
			}
			if serr == nil && !ores.ambiguousTies && fingerprint(sres) != fingerprint(ores) {
				t.Fatalf("seed %d MaxTime %v: results diverge", seed, maxTime)
			}
		}
	}
}

// TestParallelCancelNoLeak cancels an optimistic run mid-flight, with
// the speculative worker pool running: Run must return the context
// error promptly and leave no shard goroutines behind.
func TestParallelCancelNoLeak(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	r := rand.New(rand.NewPCG(7, 11))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	// Enough work per job that the run spans many events.
	for i := range specs {
		specs[i].Work *= 50
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Platform: plat,
		Initial:  federatedInitial(sched.LatencyPenalizedUtil{}),
		Policy:   core.NewResSusWaitUtil(),
		Engine:   EngineOptimistic,
		Context:  ctx,
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, specs)
		done <- err
	}()
	// Let the run get going, then pull the plug.
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// A short run may legitimately finish before the cancel lands.
		if err != nil && !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("optimistic run did not return promptly after cancellation")
	}
	// The burst workers live for one run; none may survive it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
