// Command perfbench is the netbatch benchmark. One run measures one
// workload for a fixed wall-clock budget and prints every metric by name
// with its unit; the last line of standard output is a JSON object:
//
//	perfbench --workload year6 --seed 7 --seconds 20 --trace 0
//
// With --trace 0 each pass runs with the program's observability off and
// the run reports the end-to-end metrics (medians over its passes). With
// --trace 1 the run alternates untraced and traced passes and reports
// the per-layer metrics of the median traced pass. README.md describes
// the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     float64 // multiplies the workload's scale; the self-test shrinks it
	inject   bool    // see bench.inject
}

// result is what a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: 1}
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper_tables, year6, fed_optimistic or checkpoint")
	fs.Uint64Var(&cfg.seed, "seed", 42, "workload seed; every input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "wall-clock budget for the measured passes")
	fs.IntVar(&traced, "trace", 0, "1 = report per-layer metrics from traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traced == 1
	res, err := measure(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// sample is one pass's measurements.
type sample struct {
	p                  *pass
	wall, setup        float64 // s
	allocMB, peakRSSMB float64
	gcCycles           float64
	gcPauseS           float64
	layers             map[string]float64 // traced passes only
}

// measure runs cfg's workload for its budget and reduces the passes to
// the printed result. Human-readable lines (failures, input sizes, each
// metric) go to out before the JSON line.
func measure(cfg config, out io.Writer) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seed == 0 {
		// experiments.Options reads seed 0 as its default seed, 42;
		// resolve it here so prebuilt inputs and matrices agree.
		cfg.seed = 42
	}
	procs := min(w.procs, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b := &bench{w: w, seed: cfg.seed, scale: w.scale * cfg.size, jobs: min(w.jobs, procs), inject: cfg.inject}
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}

	var untraced, tracedS []sample
	var first *pass
	attempted, failed := 0, 0
	start := time.Now()
	steal0, stealErr := hostSteal()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		s, err := runPass(b, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, i, err)
		}
		if first == nil {
			first = s.p
		}
		fmt.Fprintf(out, "pass %d traced=%v wall %.4f s setup %.4f s alloc %.1f MB peak_rss %.1f MB\n",
			i, traced, s.wall, s.setup, s.allocMB, s.peakRSSMB)
		checkRepeat(first, s.p)
		attempted += len(s.p.cells)
		failed += s.p.failed()
		for _, c := range s.p.cells {
			for _, e := range c.errs {
				fmt.Fprintf(out, "FAIL %s pass %d cell %s: %s\n", w.name, i, c.label, e)
			}
		}
		if traced {
			// Reduce the spans now and let them go: later passes must
			// not carry this pass's heap.
			s.layers = layerMetrics(s.p, s.wall)
			s.p.rec = nil
			tracedS = append(tracedS, s)
		} else {
			untraced = append(untraced, s)
		}
		// Medians need a few passes; speculation spreads need two traced.
		enough := len(untraced) >= 3
		if cfg.trace {
			enough = len(untraced) >= 2 && len(tracedS) >= 2
		}
		// Stop before a pass that would end past the budget.
		if enough && time.Now().Add(time.Duration(s.wall*float64(time.Second))).After(deadline) {
			break
		}
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	med := func(f func(sample) float64, ss []sample) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		return median(vs)
	}
	fmt.Fprintf(out, "workload %s seed %d scale %g GOMAXPROCS %d jobs %d: %d untraced + %d traced passes\n",
		w.name, cfg.seed, b.scale, procs, b.jobs, len(untraced), len(tracedS))
	fmt.Fprintf(out, "bases: trace.jobs=%d experiments.cells=%d sim.events=%d\n",
		first.traceN, len(first.cells), totalEvents(first))
	fmt.Fprintf(out, "error_rate %g (%d of %d cells failed)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	// Time the hypervisor took from this machine's CPUs inflates every
	// wall time measured meanwhile; it is printed to explain noisy runs.
	if steal1, err := hostSteal(); err == nil && stealErr == nil {
		fmt.Fprintf(out, "host steal %.2f CPU-s over %.1f s of passes\n", steal1-steal0, time.Since(start).Seconds())
	}

	if !cfg.trace {
		vals := map[string]float64{
			"wall_s":         med(func(s sample) float64 { return s.wall }, untraced),
			"setup_s":        med(func(s sample) float64 { return s.setup }, untraced),
			"alloc_mb":       med(func(s sample) float64 { return s.allocMB }, untraced),
			"peak_rss_mb":    med(func(s sample) float64 { return s.peakRSSMB }, untraced),
			"verified_ratio": 1 - ratio(float64(failed), float64(attempted)),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		// The traced pass of median wall time speaks for the layers.
		sort.Slice(tracedS, func(i, j int) bool { return tracedS[i].wall < tracedS[j].wall })
		rep := tracedS[(len(tracedS)-1)/2]
		vals := rep.layers
		vals["obs.overhead_ratio"] = ratio(
			med(func(s sample) float64 { return s.wall }, tracedS),
			med(func(s sample) float64 { return s.wall }, untraced))
		vals["go.gc_cycles"] = med(func(s sample) float64 { return s.gcCycles }, untraced)
		vals["go.gc_pause_s"] = med(func(s sample) float64 { return s.gcPauseS }, untraced)
		vals["sim.opt.bursts_spread"] = spread(tracedS, "sim.opt.bursts")
		vals["sim.opt.snapshots_spread"] = spread(tracedS, "sim.opt.snapshots")
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %s %s\n", n, strconv.FormatFloat(res.Metrics[n].Value, 'g', -1, 64), res.Metrics[n].Unit)
	}
	return res, nil
}

// runPass runs one pass from seed to verified, rendered output and
// measures it. Untraced passes start from a collected heap with its
// pages returned to the OS and the RSS high-water mark reset, so every
// pass measures its own peak.
func runPass(b *bench, traced bool) (sample, error) {
	p := &pass{bench: b}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return sample{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := -1
	if traced {
		p.rec = newRecorder()
		root = p.rec.begin(rootLayer, "pass", false)
	}
	t0 := time.Now()
	err := b.w.pass(p)
	wall := time.Since(t0).Seconds()
	if traced {
		// The root span is the traced wall, so that the layers' self
		// times and unattributed_s add up to it exactly.
		p.rec.end(root)
		wall = float64(p.rec.spans[root].end-p.rec.spans[root].start) / 1e9
	}
	if err != nil {
		return sample{}, err
	}
	runtime.ReadMemStats(&ms1)
	peak, err := peakRSSMB()
	if err != nil {
		return sample{}, err
	}
	if traced {
		if err := p.rec.absorbTimeline(); err != nil {
			return sample{}, err
		}
	}
	return sample{
		p:         p,
		wall:      wall,
		setup:     p.setup.Seconds(),
		allocMB:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		peakRSSMB: peak,
		gcCycles:  float64(ms1.NumGC - ms0.NumGC),
		gcPauseS:  float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
	}, nil
}

// checkRepeat fails p's cells whose outputs or serial-engine counts
// differ from the run's first pass: every pass of a run uses one seed,
// so these must repeat exactly. Speculation counts are timing-dependent
// and are reported with their spread instead (see spread).
func checkRepeat(first, p *pass) {
	if p == first {
		return
	}
	if len(p.cells) != len(first.cells) {
		for _, c := range p.cells {
			c.fail("pass ran %d cells, first pass %d", len(p.cells), len(first.cells))
		}
		return
	}
	if p.traceN != first.traceN {
		p.cells[0].fail("trace.jobs %d, first pass %d", p.traceN, first.traceN)
	}
	for i, c := range p.cells {
		f := first.cells[i]
		if c.fp != f.fp {
			c.fail("summary fingerprint %s, first pass %s", c.fp, f.fp)
		}
		if c.events != f.events {
			c.fail("sim.events %d, first pass %d", c.events, f.events)
		}
		if c.bytes != f.bytes {
			c.fail("checkpoint.bytes %d, first pass %d", c.bytes, f.bytes)
		}
	}
}

func totalEvents(p *pass) int64 {
	var n int64
	for _, c := range p.cells {
		n += c.events
	}
	return n
}

// spread is (max − min) / median of a per-layer count over the traced
// passes: 0 for counts that repeat exactly, and for a single pass.
func spread(ss []sample, name string) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.layers[name]
	}
	sort.Float64s(vs)
	return ratio(vs[len(vs)-1]-vs[0], median(vs))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostSteal returns the CPU time the hypervisor has taken from this
// machine's CPUs since boot: the steal column of /proc/stat, in USER_HZ
// (100 Hz) ticks.
func hostSteal() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("host steal: unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("host steal: %w", err)
	}
	return ticks / 100, nil
}

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process (VmHWM) to its current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the resident-set high-water mark since the last reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
