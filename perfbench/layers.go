package main

import (
	"time"
)

// A metric is one declared benchmark metric. BENCHMARK.json at the
// repository root lists the same names, units and bounds.
type metric struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are measured on untraced passes and printed with --trace 0.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "verified_ratio", unit: "ratio", better: "higher", bound: 0.005},
}

// selfLayers are the attribution buckets of a traced pass, in report
// order. Each reports <layer>.self_s and <layer>.calls.
var selfLayers = []string{
	"trace", "cluster", "experiments", "sim", "sched", "core",
	"sim.opt.burst", "sim.opt.group_commit", "sim.opt.rollback",
	"checkpoint.capture", "checkpoint.apply_delta", "metrics", "report", "bench.verify",
}

// perLayer are printed with --trace 1. Every workload prints all of
// them; a layer a workload does not reach reads 0.
var perLayer = func() []metric {
	ms := []metric{
		{name: "trace.jobs", unit: "count", better: "lower"},
		{name: "trace.generate_s", unit: "s", better: "lower"},
		{name: "cluster.build_s", unit: "s", better: "lower"},
		{name: "sched.select_calls", unit: "count", better: "lower"},
		{name: "sched.select_s", unit: "s", better: "lower"},
		{name: "core.decisions", unit: "count", better: "lower"},
		{name: "core.decide_s", unit: "s", better: "lower"},
		{name: "core.move_ratio", unit: "ratio", better: "higher"},
		{name: "sim.run_s", unit: "s", better: "lower"},
		{name: "sim.events", unit: "count", better: "lower"},
		{name: "sim.events_per_s", unit: "1/s", better: "higher"},
		{name: "sim.queue.depth_max", unit: "count", better: "lower"},
		{name: "sim.queue.tombstones_max", unit: "count", better: "lower"},
		{name: "sim.opt.bursts", unit: "count", better: "lower"},
		{name: "sim.opt.bursts_spread", unit: "ratio", better: "lower"},
		{name: "sim.opt.snapshots", unit: "count", better: "lower"},
		{name: "sim.opt.snapshots_spread", unit: "ratio", better: "lower"},
		{name: "sim.opt.rollbacks", unit: "count", better: "lower"},
		{name: "sim.opt.undone_events", unit: "count", better: "lower"},
		{name: "sim.opt.commit_drains", unit: "count", better: "lower"},
		{name: "sim.opt.commit_run_mean", unit: "count", better: "higher"},
		{name: "sim.opt.burst_s", unit: "s", better: "lower"},
		{name: "sim.opt.group_commit_s", unit: "s", better: "lower"},
		{name: "sim.opt.rollback_s", unit: "s", better: "lower"},
		{name: "sim.opt.snapshot_use_ratio", unit: "ratio", better: "higher"},
		{name: "checkpoint.captures", unit: "count", better: "lower"},
		{name: "checkpoint.bytes", unit: "bytes", better: "lower"},
		{name: "checkpoint.delta_bytes_ratio", unit: "ratio", better: "lower"},
		{name: "checkpoint.capture_s", unit: "s", better: "lower"},
		{name: "checkpoint.apply_delta_s", unit: "s", better: "lower"},
		{name: "checkpoint.resume_s", unit: "s", better: "lower"},
		{name: "metrics.summarize_s", unit: "s", better: "lower"},
		{name: "report.render_s", unit: "s", better: "lower"},
		{name: "experiments.cells", unit: "count", better: "lower"},
		{name: "experiments.pool_idle_s", unit: "s", better: "lower"},
		{name: "experiments.pool_busy_ratio", unit: "ratio", better: "higher"},
		{name: "go.gc_cycles", unit: "count", better: "lower"},
		{name: "go.gc_pause_s", unit: "s", better: "lower"},
		{name: "obs.overhead_ratio", unit: "ratio", better: "lower"},
		{name: "obs.traced_wall_s", unit: "s", better: "lower"},
		{name: "unattributed_s", unit: "s", better: "lower"},
	}
	for _, l := range selfLayers {
		ms = append(ms,
			metric{name: l + ".self_s", unit: "s", better: "lower"},
			metric{name: l + ".calls", unit: "count", better: "lower"})
	}
	return ms
}()

// ratio is a/b, or 0 when b is 0 (a ratio whose base never occurred).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of one traced pass whose
// wall time was wall seconds. The run-level metrics (spreads, GC,
// overhead) are filled in by the caller.
func layerMetrics(p *pass, wall float64) map[string]float64 {
	r := p.rec
	self, share := r.selfTimes()
	out := map[string]float64{}
	sums := map[string]float64{}  // span durations by name, s
	calls := map[string]float64{} // spans by layer
	var cellDur, cellShare float64
	inCell := make([]bool, len(r.spans))
	for i, s := range r.spans {
		d := float64(s.end-s.start) / float64(time.Second)
		sums[s.name] += d
		calls[s.layer]++
		inCell[i] = s.cell || (s.parent >= 0 && inCell[s.parent])
		if s.cell {
			cellDur += d
		}
		if inCell[i] {
			cellShare += share[i]
		}
	}

	// sched and core run inside the cells' sim.Run calls, timed by the
	// forwarding wrappers in thread time. Scale that to the cells' wall
	// share (the cells' concurrency) and move it out of sim's self time.
	st := r.calls
	k := ratio(cellShare, cellDur)
	selectS := float64(st.selectNS.Load()) / 1e9
	decideS := float64(st.decideNS.Load()) / 1e9
	self["sched"] = selectS * k
	self["core"] = decideS * k
	self["sim"] -= self["sched"] + self["core"]
	calls["sched"] = float64(st.selectCalls.Load())
	calls["core"] = float64(st.decisions.Load())
	for _, l := range selfLayers {
		out[l+".self_s"] = self[l]
		out[l+".calls"] = calls[l]
	}
	out["unattributed_s"] = self[rootLayer]
	out["obs.traced_wall_s"] = wall

	out["trace.jobs"] = float64(p.traceN)
	out["trace.generate_s"] = sums["trace.generate"]
	out["cluster.build_s"] = sums["cluster.build"]
	out["sched.select_calls"] = calls["sched"]
	out["sched.select_s"] = selectS
	out["core.decisions"] = calls["core"]
	out["core.decide_s"] = decideS
	out["core.move_ratio"] = ratio(float64(st.moves.Load()), calls["core"])

	reg := map[string]float64{}
	var groupSum, groupCount float64
	for _, m := range r.reg.Snapshot() {
		reg[m.Name] = float64(m.Value)
		if m.Name == "sim.opt.group_commit_size" {
			groupSum, groupCount = float64(m.Sum), float64(m.Value)
		}
	}
	out["sim.run_s"] = cellDur
	out["sim.events"] = reg["sim.events"]
	out["sim.events_per_s"] = ratio(reg["sim.events"], cellDur)
	for _, n := range []string{"sim.queue.depth_max", "sim.queue.tombstones_max",
		"sim.opt.bursts", "sim.opt.snapshots", "sim.opt.rollbacks", "sim.opt.undone_events",
		"sim.opt.commit_drains"} {
		out[n] = reg[n]
	}
	out["sim.opt.commit_run_mean"] = ratio(groupSum, groupCount)
	out["sim.opt.burst_s"] = sums["sim.opt.burst"]
	out["sim.opt.group_commit_s"] = sums["sim.opt.group_commit"]
	out["sim.opt.rollback_s"] = sums["sim.opt.rollback"]
	out["sim.opt.snapshot_use_ratio"] = ratio(reg["sim.opt.rollbacks"], reg["sim.opt.snapshots"])

	ck := p.ckptRun
	out["checkpoint.captures"] = reg["sim.checkpoint.captures"]
	out["checkpoint.bytes"] = reg["sim.checkpoint.bytes"]
	out["checkpoint.delta_bytes_ratio"] = ratio(
		ratio(float64(ck.deltaBytes), float64(ck.deltaN)),
		ratio(float64(ck.fullBytes), float64(ck.fullN)))
	out["checkpoint.capture_s"] = sums["checkpoint.capture"]
	out["checkpoint.apply_delta_s"] = sums["checkpoint.apply_delta"]
	out["checkpoint.resume_s"] = sums["checkpoint.resume"]
	out["metrics.summarize_s"] = sums["metrics.summarize"]
	out["report.render_s"] = sums["report.render"]

	// The matrix pool: each experiments span ran its cells on
	// min(jobs, cells) workers; whatever those workers did not spend in
	// a cell's sim.Run is idle (or summarizing, inside the matrix).
	var capacity, busy float64
	for i, s := range r.spans {
		if s.layer != "experiments" {
			continue
		}
		var n int
		for _, c := range r.spans {
			if c.cell && c.parent == i {
				n++
				busy += float64(c.end-c.start) / float64(time.Second)
			}
		}
		capacity += float64(min(p.jobs, n)) * float64(s.end-s.start) / float64(time.Second)
	}
	out["experiments.cells"] = float64(len(p.cells))
	out["experiments.pool_idle_s"] = capacity - busy
	out["experiments.pool_busy_ratio"] = ratio(busy, capacity)
	return out
}
