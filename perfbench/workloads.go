package main

import (
	"bytes"
	"fmt"
	"strings"

	"netbatch/internal/cluster"
	"netbatch/internal/core"
	"netbatch/internal/experiments"
	"netbatch/internal/metrics"
	"netbatch/internal/report"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
)

// A workload is one set of inputs the benchmark runs. README.md gives
// the reasons for each and the layers it is meant to move.
type workload struct {
	name  string
	procs int     // GOMAXPROCS for the whole run
	jobs  int     // experiments.Options.Jobs
	scale float64 // experiments.Options.Scale at size factor 1
	// prepare runs once per benchmark run, untimed, before any pass.
	prepare func(b *bench) error
	// pass runs one seed-to-verified, rendered pass.
	pass func(p *pass) error
}

var workloads = []*workload{
	{name: "paper_tables", procs: 2, jobs: 2, scale: 0.04, pass: paperTablesPass},
	{name: "year6", procs: 1, jobs: 1, scale: 0.04, pass: year6Pass},
	{name: "fed_optimistic", procs: 2, jobs: 2, scale: 0.04, prepare: fedPrepare, pass: fedPass},
	{name: "checkpoint", procs: 1, jobs: 1, scale: 0.1, pass: checkpointPass},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// replicates returns the per-policy summaries of scenario s, the shape
// the report layer's CI tables take.
func replicates(mr *experiments.MatrixResult, s int) [][]metrics.Summary {
	reps := make([][]metrics.Summary, len(mr.PolicyNames))
	for pol := range reps {
		reps[pol] = mr.Replicates(s, pol)
	}
	return reps
}

// paperTablesPass reproduces Tables 1–5: five registered experiments on
// the serial engine, each regenerating the week trace, rendered in the
// paper's layout.
func paperTablesPass(p *pass) error {
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5"} {
		e, err := experiments.Get(id)
		if err != nil {
			return err
		}
		mr, _, err := p.runMatrix(e.Plan(p.options("")), sim.EngineSerial)
		if err != nil || mr == nil {
			return err
		}
		reps := replicates(mr, 0)
		err = p.render(
			func() (*report.Table, error) { return report.PaperTableCI(e.Title, mr.PolicyNames, reps) },
			func() (*report.Table, error) {
				return report.WasteTableCI(e.Title+" — wasted-time components", mr.PolicyNames, reps)
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// year6 is one simulated year on the 6-site federation, one cell.
func year6Pass(p *pass) error {
	m := experiments.Matrix{
		Scenarios: []experiments.Scenario{experiments.MultiSiteYearScenario("year6", 6,
			func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })},
		Policies: []experiments.PolicyFactory{{
			Name: "ResSusWaitLatency",
			New:  func(uint64) core.Policy { return core.NewResSusWaitLatency() },
		}},
	}
	mr, _, err := p.runMatrix(m, sim.EngineSerial)
	if err != nil || mr == nil {
		return err
	}
	return p.render(func() (*report.Table, error) {
		return report.PaperTableCI("year6: one simulated year, 6-site federation", mr.PolicyNames, replicates(mr, 0))
	})
}

// fedPrepare runs the multisite experiment once on the serial engine,
// untimed: the reference every optimistic pass must match byte for byte.
func fedPrepare(b *bench) error {
	e, err := experiments.Get("multisite")
	if err != nil {
		return err
	}
	ref, err := e.Run(experiments.Options{Seed: b.seed, Scale: b.scale, Jobs: b.jobs, Engine: sim.EngineSerial})
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	var buf bytes.Buffer
	for _, t := range ref.Tables {
		if err := t.Render(&buf); err != nil {
			return err
		}
	}
	b.ref, b.refTables = ref, buf.String()
	return nil
}

// fedPass runs the multisite matrix on the optimistic engine and renders
// it as the multisite experiment does: one paper-table row per cell,
// plus a per-site table for each multi-site federation.
func fedPass(p *pass) error {
	e, err := experiments.Get("multisite")
	if err != nil {
		return err
	}
	m := e.Plan(p.options(sim.EngineOptimistic))
	mr, plats, err := p.runMatrix(m, sim.EngineOptimistic)
	if err != nil || mr == nil {
		return err
	}
	var names []string
	var reps [][]metrics.Summary
	for s, sc := range m.Scenarios {
		for pol, name := range mr.PolicyNames {
			names = append(names, sc.ID+"/"+name)
			reps = append(reps, mr.Replicates(s, pol))
		}
	}
	builds := []func() (*report.Table, error){
		func() (*report.Table, error) { return report.PaperTableCI(e.Title, names, reps) },
	}
	for s, sc := range m.Scenarios {
		plat := plats[s]
		if plat.NumSites() <= 1 {
			continue
		}
		builds = append(builds, func() (*report.Table, error) {
			perStrategy := make([][]metrics.SiteSummary, len(mr.PolicyNames))
			for pol := range perStrategy {
				sums, err := metrics.SummarizeSites(mr.At(s, pol, 0).Result.Jobs, plat.SiteOf, plat.NumSites())
				if err != nil {
					return nil, err
				}
				perStrategy[pol] = sums
			}
			return report.SiteTable(sc.ID+" — per-site breakdown", mr.PolicyNames, regions(plat), perStrategy)
		})
	}
	if err := p.render(builds...); err != nil {
		return err
	}
	for i, c := range p.cells {
		if c.fp != fingerprint(p.ref.Summaries[i]) {
			c.fail("summary differs from the serial engine's")
		}
	}
	if got := p.out.String(); got != p.refTables {
		line := firstDiffLine(got, p.refTables)
		for _, c := range p.cells {
			c.fail("rendered tables differ from the serial engine's: %q", line)
		}
	}
	return nil
}

func regions(plat *cluster.Platform) []string {
	out := make([]string, plat.NumSites())
	for i := range out {
		out[i] = plat.Site(i).Region
	}
	return out
}

// firstDiffLine returns the first line of got that differs from want.
func firstDiffLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			return g[i]
		}
	}
	return "(output truncated)"
}

// checkpointPass runs the fed3-latency busy week on the serial engine,
// checkpointing every simulated day into memory with a keyframe every 8
// snapshots, then rebuilds the mid-run delta from its keyframe chain and
// resumes from it. The resumed run must reproduce the straight one.
func checkpointPass(p *pass) error {
	sc := experiments.MultiSiteScenario("fed3-latency", 3, 0,
		func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })
	tr, plat, err := p.prebuild(&sc)
	if err != nil {
		return err
	}
	newCfg := func() sim.Config {
		return sim.Config{
			Platform:          plat,
			Initial:           sc.NewInitial(),
			Policy:            core.NewResSusWaitLatency(),
			CheckConservation: true,
		}
	}
	var snaps []sim.Checkpoint
	cfg := newCfg()
	cfg.CheckpointEvery = 1440
	cfg.CheckpointKeyframe = 8
	cfg.CheckpointSink = func(ck sim.Checkpoint) error {
		snaps = append(snaps, ck)
		return nil
	}
	straight := &cell{label: "fed3-latency/straight", jobs: len(tr.Jobs)}
	resumed := &cell{label: "fed3-latency/resumed", jobs: len(tr.Jobs)}
	p.cells = append(p.cells, straight, resumed)

	r, err := p.simRun(straight.label, "sim.run", cfg, tr.Jobs)
	if err != nil {
		straight.fail("run: %v", err)
		resumed.fail("no straight run to resume")
		return nil
	}
	sum := p.summarize(straight, r)
	p.verify(straight, r, &sum)
	st := &p.ckptRun
	for _, ck := range snaps {
		straight.bytes += int64(len(ck.Data))
		if ck.Delta {
			st.deltaN++
			st.deltaBytes += int64(len(ck.Data))
		} else {
			st.fullN++
			st.fullBytes += int64(len(ck.Data))
		}
	}

	// The first delta at or past the middle of the stream, rebuilt from
	// the nearest keyframe before it.
	mid := len(snaps) / 2
	for mid < len(snaps) && !snaps[mid].Delta {
		mid++
	}
	if mid == len(snaps) {
		resumed.fail("no delta snapshot past the middle of %d captures", len(snaps))
		return nil
	}
	key := mid
	for key > 0 && snaps[key].Delta {
		key--
	}
	var data []byte
	err = p.timed("checkpoint.apply_delta", "checkpoint.apply_delta", func() error {
		data = snaps[key].Data
		for i := key + 1; i <= mid; i++ {
			var err error
			if data, err = sim.ApplySnapshotDelta(data, snaps[i].Data); err != nil {
				return fmt.Errorf("snapshot %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		resumed.fail("rebuild delta: %v", err)
		return nil
	}
	rcfg := newCfg()
	rcfg.ResumeFrom = data
	rr, err := p.simRun(resumed.label, "checkpoint.resume", rcfg, tr.Jobs)
	if err != nil {
		resumed.fail("resume: %v", err)
		return nil
	}
	rsum := p.summarize(resumed, rr)
	p.verify(resumed, rr, &rsum)
	if resumed.fp != straight.fp {
		resumed.fail("resumed summary differs from the straight run's")
	}
	return p.render(func() (*report.Table, error) {
		return report.PaperTable("checkpoint: fed3-latency busy week, straight and resumed",
			[]string{"straight", "resumed"}, []metrics.Summary{sum, rsum})
	})
}
