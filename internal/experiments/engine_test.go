package experiments

// Engine determinism at the experiment level: the serial and optimistic
// simulation engines must produce byte-identical rendered reports and
// hex-float-identical series for the multisite experiment (single-site
// baseline, 3-site federations, 6-site federation) and for the
// single-site paper experiments (where the optimistic engine falls back
// to the serial kernel). CI runs this under -race.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"netbatch/internal/sim"
	"netbatch/internal/stats"
)

// engineOpts pins every knob that affects output except the engine.
func engineOpts(engine string) Options {
	return Options{Seed: 42, Seeds: 1, Scale: 0.03, Engine: engine}
}

// seriesFingerprint renders every series point in hex so comparison is
// bit-exact.
func seriesFingerprint(t *testing.T, out *Output) string {
	t.Helper()
	names := make([]string, 0, len(out.Series))
	for name := range out.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s:", name)
		for _, p := range out.Series[name] {
			fmt.Fprintf(&sb, " %x/%x", p.X, p.Y)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func runEngine(t *testing.T, id, engine string) (rendered, series string) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(engineOpts(engine))
	if err != nil {
		t.Fatalf("%s engine %s: %v", id, engine, err)
	}
	return renderOutput(t, out), seriesFingerprint(t, out)
}

// TestMultiSiteEnginesBitIdentical is the determinism contract of the
// optimistic engine on the experiment that exercises it: fed1 (serial
// fallback), the three 3-site federations, and the 6-site federation,
// across all three rescheduling policies.
func TestMultiSiteEnginesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	serialOut, serialSeries := runEngine(t, "multisite", sim.EngineSerial)
	optOut, optSeries := runEngine(t, "multisite", sim.EngineOptimistic)
	if serialOut != optOut {
		t.Errorf("multisite rendered reports differ between engines:\n%s",
			diffHead(serialOut, optOut))
	}
	if serialSeries != optSeries {
		t.Errorf("multisite series differ between engines:\n%s",
			diffHead(serialSeries, optSeries))
	}
}

// TestSingleSiteEnginesBitIdentical pins the fallback contract on every
// registered single-site experiment: Engine=optimistic must change
// nothing at all.
func TestSingleSiteEnginesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs")
	}
	for _, id := range IDs() {
		if id == "multisite" || id == "faults" {
			continue // covered above / below, with real partitions
		}
		id := id
		t.Run(id, func(t *testing.T) {
			serialOut, serialSeries := runEngine(t, id, sim.EngineSerial)
			optOut, optSeries := runEngine(t, id, sim.EngineOptimistic)
			if serialOut != optOut {
				t.Errorf("rendered reports differ between engines:\n%s",
					diffHead(serialOut, optOut))
			}
			if serialSeries != optSeries {
				t.Errorf("series differ between engines:\n%s",
					diffHead(serialSeries, optSeries))
			}
		})
	}
}

// TestFaultsEnginesBitIdentical extends the determinism contract to
// the fault & maintenance subsystem: the faults experiment — crashes,
// maintenance windows, kill/requeue and drain cells on 1/3/6-site
// federations — must render byte-identically under both engines.
func TestFaultsEnginesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	serialOut, serialSeries := runEngine(t, "faults", sim.EngineSerial)
	optOut, optSeries := runEngine(t, "faults", sim.EngineOptimistic)
	if serialOut != optOut {
		t.Errorf("faults rendered reports differ between engines:\n%s",
			diffHead(serialOut, optOut))
	}
	if serialSeries != optSeries {
		t.Errorf("faults series differ between engines:\n%s",
			diffHead(serialSeries, optSeries))
	}
}

// TestFaultsCrossShardTiesOrdered pins the optimistic engine's
// cross-shard tie order on the faults cells whose maintenance windows
// (720/1440/2160-minute offsets on the 30-minute timeout grid) put a
// suspension decision, wait timeout or window end at the same instant
// as a peer site's view refresh. Such heads differ in creation phase,
// which orders them exactly, so the cells must report no ambiguous tie
// and match the serial kernel bit for bit. Single cells keep the test
// cheap enough to run everywhere.
func TestFaultsCrossShardTiesOrdered(t *testing.T) {
	cells := []struct {
		scale            float64
		scenario, policy string
	}{
		{0.02, "fed3-faults", "NoRes"},
		{0.04, "fed3-faults", "NoRes"},
		{0.04, "fed3-faults", "ResSusWaitUtil"},
		{0.04, "fed3-faults", "ResSusWaitLatency"},
		{0.04, "fed3-drain", "ResSusWaitUtil"},
		{0.04, "fed3-drain", "ResSusWaitLatency"},
	}
	for _, c := range cells {
		var fps [2]string
		for i, engine := range []string{sim.EngineSerial, sim.EngineOptimistic} {
			cfg, specs, err := CellSim("faults", c.scenario, c.policy, 0,
				Options{Seed: 42, Seeds: 1, Scale: c.scale, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.Run(cfg, specs)
			if err != nil {
				t.Fatalf("%v %s/%s %s: %v", c.scale, c.scenario, c.policy, engine, err)
			}
			if r.AmbiguousTies() {
				t.Errorf("%v %s/%s: %s engine flagged an ambiguous tie", c.scale, c.scenario, c.policy, engine)
			}
			fps[i] = resultFingerprint(r)
		}
		if fps[0] != fps[1] {
			t.Errorf("%v %s/%s: engines differ:\n%s", c.scale, c.scenario, c.policy, diffHead(fps[0], fps[1]))
		}
	}
}

// resultFingerprint renders a run's counters, job records and series
// in hex so comparison is bit-exact.
func resultFingerprint(r *sim.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan=%x events=%d pre=%d restarts=%d mig=%d waitmoves=%d xsub=%d xmove=%d\n",
		r.Makespan, r.Events, r.Preemptions, r.Restarts, r.Migrations,
		r.WaitMoves, r.CrossSiteSubmits, r.CrossSiteMoves)
	fmt.Fprintf(&sb, "crashes=%d maint=%d kills=%d worklost=%x downcm=%x\n",
		r.Crashes, r.MaintWindows, r.Kills, r.WorkLost, r.DownCoreMinutes)
	for _, j := range r.Jobs {
		a := j.Acct()
		fmt.Fprintf(&sb, "job %d: pool=%d first=%x done=%x w=%x s=%x we=%x e=%x\n",
			j.Spec.ID, j.Pool, j.FirstStart, j.Completed, a.Wait, a.Suspend, a.WastedExec, a.Exec)
	}
	for _, ts := range append([]*stats.TimeSeries{r.Util, r.Suspended, r.Waiting}, r.SiteUtil...) {
		for _, p := range ts.Points() {
			fmt.Fprintf(&sb, " %x/%x", p.X, p.Y)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// diffHead shows the first few differing lines of two renderings.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var sb strings.Builder
	shown := 0
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x == y {
			continue
		}
		fmt.Fprintf(&sb, "line %d:\n  serial:     %.160s\n  optimistic: %.160s\n", i+1, x, y)
		if shown++; shown >= 4 {
			sb.WriteString("  ...\n")
			break
		}
	}
	return sb.String()
}
