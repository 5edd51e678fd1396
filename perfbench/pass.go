package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"netbatch/internal/cluster"
	"netbatch/internal/experiments"
	"netbatch/internal/job"
	"netbatch/internal/metrics"
	"netbatch/internal/obs"
	"netbatch/internal/report"
	"netbatch/internal/sim"
	"netbatch/internal/trace"
)

// bench is one benchmark run of one workload: the seed-derived inputs
// every pass of the run shares, plus what prepare computed untimed.
type bench struct {
	w     *workload
	seed  uint64
	scale float64 // the workload's scale times the run's size factor
	jobs  int     // experiments.Options.Jobs

	// ref is fed_optimistic's untimed serial-engine rerun of the seed,
	// and refTables its rendering.
	ref       *experiments.Output
	refTables string

	// inject corrupts the first cell's output before verification, so
	// the self-test can show a mismatch reaching error_rate.
	inject bool
}

// A cell is one simulation run of a pass and its verification outcome.
type cell struct {
	label  string
	fp     string // fingerprint of the run's Summary
	events int64  // sim.Result.Events
	jobs   int    // jobs in the cell's trace
	bytes  int64  // checkpoint bytes emitted by the run (checkpoint workload)
	errs   []string
}

func (c *cell) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// A pass is one seed-to-verified, rendered run of a workload. With rec
// set it is a traced pass: the program's metrics, timeline and run log
// are on, the sched/core wrappers are installed, and every call into a
// layer is a span.
type pass struct {
	*bench
	rec *recorder

	setup   time.Duration // trace synthesis + platform builds
	traceN  int64         // jobs generated across the pass's traces
	cells   []*cell
	out     bytes.Buffer // rendered tables
	ckptRun ckptStats    // checkpoint workload only
}

// ckptStats describes the checkpoint stream of one run.
type ckptStats struct {
	fullN, deltaN         int
	fullBytes, deltaBytes int64
}

// timed runs fn as one call into layer: a span when traced.
func (p *pass) timed(layer, name string, fn func() error) error {
	if p.rec == nil {
		return fn()
	}
	i := p.rec.begin(layer, name, false)
	defer p.rec.end(i)
	return fn()
}

// prebuild synthesizes a scenario's trace and platform itself — the
// pass's set-up — and hands them to the scenario prebuilt, so the
// matrix times simulation only.
func (p *pass) prebuild(sc *experiments.Scenario) (*trace.Trace, *cluster.Platform, error) {
	t0 := time.Now()
	defer func() { p.setup += time.Since(t0) }()
	var tr *trace.Trace
	err := p.timed("trace", "trace.generate", func() (err error) {
		tr, err = sc.Trace(p.seed, p.scale)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: trace: %w", sc.ID, err)
	}
	var plat *cluster.Platform
	err = p.timed("cluster", "cluster.build", func() (err error) {
		plat, err = sc.Platform(p.scale)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: platform: %w", sc.ID, err)
	}
	p.traceN += int64(len(tr.Jobs))
	sc.Trace = func(uint64, float64) (*trace.Trace, error) { return tr, nil }
	sc.Platform = func(float64) (*cluster.Platform, error) { return plat, nil }
	return tr, plat, nil
}

// options are the experiments options of every matrix in the pass.
func (p *pass) options(engine string) experiments.Options {
	opts := experiments.Options{Seed: p.seed, Scale: p.scale, Jobs: p.jobs, Engine: engine}
	if p.rec != nil {
		opts.Metrics = p.rec.reg
		opts.Trace = p.rec.tracer
		opts.RunLog = obs.NewRunLog(p.rec)
	}
	return opts
}

// runMatrix prebuilds every scenario of m, runs it on engine and
// verifies every cell. It returns the matrix result (nil when the run
// failed, in which case every cell is failed) and the platforms.
func (p *pass) runMatrix(m experiments.Matrix, engine string) (*experiments.MatrixResult, []*cluster.Platform, error) {
	plats := make([]*cluster.Platform, len(m.Scenarios))
	jobs := make([]int, len(m.Scenarios))
	for s := range m.Scenarios {
		tr, plat, err := p.prebuild(&m.Scenarios[s])
		if err != nil {
			return nil, nil, err
		}
		plats[s], jobs[s] = plat, len(tr.Jobs)
	}
	m.Seeds = []uint64{p.seed}
	if p.rec != nil {
		wrapMatrix(&m, p.rec.calls)
	}
	var mr *experiments.MatrixResult
	runErr := p.timed("experiments", "experiments.run", func() (err error) {
		mr, err = m.Run(p.options(engine))
		return err
	})
	for s, sc := range m.Scenarios {
		for pol, pf := range m.Policies {
			c := &cell{label: sc.ID + "/" + pf.Name + "/r0", jobs: jobs[s]}
			p.cells = append(p.cells, c)
			if runErr != nil {
				c.fail("matrix run: %v", runErr)
				continue
			}
			cr := mr.At(s, pol, 0)
			p.verify(c, cr.Result, &cr.Summary)
		}
	}
	if runErr != nil {
		return nil, plats, nil
	}
	return mr, plats, nil
}

// simRun runs one simulation outside any matrix, as a cell of its own.
func (p *pass) simRun(label, name string, cfg sim.Config, specs []job.Spec) (*sim.Result, error) {
	if p.rec == nil {
		return sim.Run(cfg, specs)
	}
	cfg.Initial = wrapSched(cfg.Initial, p.rec.calls)
	cfg.Policy = wrapPolicy(cfg.Policy, p.rec.calls)
	cfg.Metrics = p.rec.reg
	i, proc := p.rec.openCell(label, name)
	defer p.rec.end(i)
	cfg.Trace = proc
	return sim.Run(cfg, specs)
}

// summarize is the metrics layer's call on a run the matrix did not
// summarize itself.
func (p *pass) summarize(c *cell, r *sim.Result) metrics.Summary {
	var sum metrics.Summary
	err := p.timed("metrics", "metrics.summarize", func() (err error) {
		sum, err = metrics.Summarize(r.Jobs)
		return err
	})
	if err != nil {
		c.fail("summarize: %v", err)
	}
	return sum
}

// verify checks one cell's output: every trace job completed and passes
// the job-accounting invariant, the run raised no ambiguous tie, the
// summary's waste components add up, and summarizing the jobs again
// (the metrics layer's timed call) reproduces the summary.
func (p *pass) verify(c *cell, r *sim.Result, sum *metrics.Summary) {
	if p.inject && len(p.cells) > 0 && c == p.cells[0] {
		sum.AvgWCT++
	}
	c.fp = fingerprint(*sum)
	if r == nil {
		c.fail("no result")
		return
	}
	c.events = r.Events
	_ = p.timed("bench.verify", "bench.verify", func() error {
		if len(r.Jobs) != c.jobs {
			c.fail("%d jobs simulated, trace has %d", len(r.Jobs), c.jobs)
		}
		for _, j := range r.Jobs {
			if j.State() != job.StateCompleted {
				c.fail("job %d not completed (%v)", j.Spec.ID, j.State())
				break
			}
			if err := j.CheckConservation(); err != nil {
				c.fail("%v", err)
				break
			}
		}
		if r.AmbiguousTies() {
			c.fail("ambiguous cross-partition tie")
		}
		if err := sum.CheckComponents(); err != nil {
			c.fail("%v", err)
		}
		if again := p.summarize(c, r); fingerprint(again) != c.fp {
			c.fail("summary differs from a re-summarize of its jobs")
		}
		return nil
	})
}

// render builds and renders tables into the pass output.
func (p *pass) render(build ...func() (*report.Table, error)) error {
	return p.timed("report", "report.render", func() error {
		for _, b := range build {
			tbl, err := b()
			if err != nil {
				return err
			}
			if err := tbl.Render(&p.out); err != nil {
				return err
			}
		}
		return nil
	})
}

// fingerprint hashes a summary exactly: %x prints floats in hex.
func fingerprint(s metrics.Summary) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x", s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// failed counts the pass's cells that failed verification.
func (p *pass) failed() int {
	n := 0
	for _, c := range p.cells {
		if len(c.errs) > 0 {
			n++
		}
	}
	return n
}
