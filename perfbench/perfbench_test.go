package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"netbatch/internal/core"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
)

// tiny shrinks every workload to a smoke-test size.
const tiny = 0.1

func measureTiny(t *testing.T, name string, traced, inject bool) *result {
	t.Helper()
	res, err := measure(config{workload: name, seed: 3, trace: traced, size: tiny, inject: inject}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// checkDeclared fails unless res carries exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, name string, res *result, declared []metric) {
	t.Helper()
	if len(res.Metrics) != len(declared) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.name)
		case got.Unit != m.unit:
			t.Errorf("%s: metric %s unit %q, want %q", name, m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", name, m.name, got.Value)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := measureTiny(t, w.name, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkDeclared(t, w.name, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}

			res = measureTiny(t, w.name, true, false)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d (traced fingerprints must match untraced)", res.Correct, res.Failed)
			}
			checkDeclared(t, w.name, res, perLayer)
			// The layers' self times and unattributed_s partition the
			// traced wall.
			sum := res.Metrics["unattributed_s"].Value
			for _, l := range selfLayers {
				sum += res.Metrics[l+".self_s"].Value
			}
			if wall := res.Metrics["obs.traced_wall_s"].Value; math.Abs(sum-wall) > 1e-6*wall {
				t.Errorf("self times sum to %v s, traced wall is %v s", sum, wall)
			}
		})
	}
}

func TestInjectedMismatchRaisesErrorRate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := measureTiny(t, w.name, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("injected mismatch not detected: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if v := res.Metrics["verified_ratio"].Value; v >= 1 {
				t.Errorf("verified_ratio = %v with %d of %d cells failed", v, res.Failed, res.Attempted)
			}
		})
	}
}

// The engine reads optional interfaces off schedulers and policies; the
// timing wrappers must expose exactly those the wrapped value has.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	st := &callStats{}
	for _, c := range []struct {
		s        sched.InitialScheduler
		stateful bool
	}{
		{sched.NewRoundRobin(), true},
		{sched.NewUtilizationBased(), false},
	} {
		w := wrapSched(c.s, st)
		if _, ok := w.(sim.Stateful); ok != c.stateful || w.Name() != c.s.Name() {
			t.Errorf("wrapped %s: Stateful %v, name %q", c.s.Name(), ok, w.Name())
		}
	}
	for _, c := range []struct {
		p                  core.Policy
		stateful, migrator bool
	}{
		{core.NewResSusWaitLatency(), false, false},
		{core.NewResSusWaitRand(1), true, false},
		{core.NewResSusMigrate(30), false, true},
	} {
		w := wrapPolicy(c.p, st)
		_, stateful := w.(sim.Stateful)
		mg, migrator := w.(core.Migrator)
		if stateful != c.stateful || migrator != c.migrator || w.Name() != c.p.Name() ||
			w.WaitThreshold() != c.p.WaitThreshold() {
			t.Errorf("wrapped %s: Stateful %v, Migrator %v, name %q", c.p.Name(), stateful, migrator, w.Name())
		}
		if migrator && mg.MigrationOverhead() != 30 {
			t.Errorf("wrapped %s: MigrationOverhead %v", c.p.Name(), mg.MigrationOverhead())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metrics and workloads declared here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i := range min(len(doc.Workloads), len(workloads)) {
		if doc.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, doc.Workloads[i].Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			g, w := got[i], want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}
