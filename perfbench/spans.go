package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"netbatch/internal/obs"
)

// A span is one timed call into a layer during a traced pass. Spans form
// a tree through parent links: the pass root, the benchmark's own calls
// into each layer, one span per simulation run (a "cell"), and the
// engine's timeline spans read back from obs.Tracer under their cell.
type span struct {
	layer      string // attribution bucket: "trace", "sim", "sim.opt.burst", ...
	name       string // finer name for span-sum metrics, e.g. "checkpoint.resume"
	parent     int    // index of the enclosing span; -1 for the root
	cell       bool   // a whole sim.Run call
	start, end int64  // ns since the recorder's clock started
}

// rootLayer is the attribution bucket of the pass root: wall time spent
// in no layer's span is benchmark glue, reported as unattributed_s.
const rootLayer = "unattributed"

// A recorder collects the spans of one traced pass in memory. Benchmark
// spans are opened and closed on the pass goroutine (stack); cell spans
// arrive from matrix workers through the run log (mu); engine spans are
// absorbed from the tracer once the pass has ended.
type recorder struct {
	t0     time.Time
	tracer *obs.Tracer
	reg    *obs.Registry
	calls  *callStats

	mu    sync.Mutex
	spans []span
	stack []int
	cells map[string]int // cell spans by cell label
}

func newRecorder() *recorder {
	r := &recorder{
		t0:    time.Now(),
		reg:   obs.NewRegistry(),
		calls: &callStats{},
		cells: map[string]int{},
	}
	// The tracer's clock starts here too; its µs timestamps line up with
	// the recorder's to well under a microsecond.
	r.tracer = obs.NewTracer()
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a benchmark span under the innermost open one.
func (r *recorder) begin(layer, name string, cell bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{layer: layer, name: name, parent: parent, cell: cell, start: r.now()})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// end closes the innermost open benchmark span, which must be i.
func (r *recorder) end(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// Write receives the experiments run log (obs.RunLog serializes calls):
// cell_start and cell_done records bracket each cell's sim.Run on the
// worker that ran it, so they open and close the cell's span.
func (r *recorder) Write(line []byte) (int, error) {
	var rec obs.RunRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return 0, fmt.Errorf("perfbench: run log record: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch rec.Type {
	case "cell_start":
		parent := -1
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1]
		}
		r.spans = append(r.spans, span{layer: "sim", name: "sim.run", parent: parent, cell: true, start: r.now()})
		r.cells[rec.Cell] = len(r.spans) - 1
	case "cell_done":
		if i, ok := r.cells[rec.Cell]; ok {
			r.spans[i].end = r.now()
		}
	}
	return len(line), nil
}

// openCell registers a benchmark-driven sim.Run (one not run by the
// matrix) as a cell span whose engine timeline is the returned process.
func (r *recorder) openCell(label, name string) (int, *obs.Process) {
	i := r.begin("sim", name, true)
	r.mu.Lock()
	r.cells[label] = i
	r.mu.Unlock()
	return i, r.tracer.Process("cell " + label)
}

// engineLayers maps engine timeline span names to attribution buckets.
// Names not listed (the conservative engine's round protocol, which no
// workload runs) count as the sim layer's own time.
var engineLayers = map[string]string{
	"burst":        "sim.opt.burst",
	"group-commit": "sim.opt.group_commit",
	"rollback":     "sim.opt.rollback",
	"checkpoint":   "checkpoint.capture",
}

// absorbTimeline reads the engine's spans back out of the tracer and
// hangs each under its cell span, or under the enclosing span of its own
// track when engine spans nest.
func (r *recorder) absorbTimeline() error {
	var buf bytes.Buffer
	if err := r.tracer.WriteJSON(&buf); err != nil {
		return fmt.Errorf("perfbench: timeline: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("perfbench: timeline: %w", err)
	}
	cellOf := map[int]int{} // pid -> cell span
	type track struct{ pid, tid int }
	byTrack := map[track][]span{}
	var order []track
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			if i, ok := r.cells[strings.TrimPrefix(ev.Args.Name, "cell ")]; ok {
				cellOf[ev.Pid] = i
			}
		case ev.Ph == "X":
			layer, ok := engineLayers[ev.Name]
			if !ok {
				layer = "sim"
			}
			k := track{ev.Pid, ev.Tid}
			if _, seen := byTrack[k]; !seen {
				order = append(order, k)
			}
			byTrack[k] = append(byTrack[k], span{
				layer: layer, name: layer,
				start: ev.Ts * int64(time.Microsecond),
				end:   (ev.Ts + ev.Dur) * int64(time.Microsecond),
			})
		}
	}
	for _, k := range order {
		cell, ok := cellOf[k.pid]
		if !ok {
			return fmt.Errorf("perfbench: timeline process %d belongs to no cell", k.pid)
		}
		evs := byTrack[k]
		// Longer spans first at equal starts, so an enclosing span is
		// appended before the spans it contains.
		sort.SliceStable(evs, func(a, b int) bool {
			if evs[a].start != evs[b].start {
				return evs[a].start < evs[b].start
			}
			return evs[a].end > evs[b].end
		})
		var open []int
		for _, s := range evs {
			for len(open) > 0 && r.spans[open[len(open)-1]].end <= s.start {
				open = open[:len(open)-1]
			}
			s.parent = cell
			if len(open) > 0 {
				s.parent = open[len(open)-1]
			}
			r.spans = append(r.spans, s)
			open = append(open, len(r.spans)-1)
		}
	}
	return nil
}

// selfTimes attributes every instant of the pass to exactly one layer
// share: the instant is split evenly among the innermost spans open at
// it (one per concurrently running thread of work). A layer's self time
// is the sum of its spans' shares, so the self times of all layers,
// unattributed included, add up to the root span's duration. On a
// single thread this is the usual "duration minus the part its children
// cover". It also returns, per span, its share.
func (r *recorder) selfTimes() (map[string]float64, []float64) {
	// Children are clamped into their parents, which always precede them.
	for i := range r.spans {
		s := &r.spans[i]
		if s.end < s.start {
			s.end = s.start
		}
		if s.parent >= 0 {
			p := r.spans[s.parent]
			s.start = min(max(s.start, p.start), p.end)
			s.end = min(max(s.end, s.start), p.end)
		}
	}
	type edge struct {
		t     int64
		start bool
		i     int
	}
	edges := make([]edge, 0, 2*len(r.spans))
	for i, s := range r.spans {
		if s.end > s.start {
			edges = append(edges, edge{s.start, true, i}, edge{s.end, false, i})
		}
	}
	// At one instant: ends before starts, children end before parents,
	// parents start before children.
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.start != eb.start {
			return !ea.start
		}
		if ea.start {
			return ea.i < eb.i
		}
		return ea.i > eb.i
	})
	share := make([]float64, len(r.spans))
	openKids := make([]int, len(r.spans))
	pos := make([]int, len(r.spans))
	var leaves []int
	addLeaf := func(i int) { pos[i] = len(leaves); leaves = append(leaves, i) }
	dropLeaf := func(i int) {
		last := leaves[len(leaves)-1]
		leaves[pos[i]] = last
		pos[last] = pos[i]
		leaves = leaves[:len(leaves)-1]
	}
	var prev int64
	for _, e := range edges {
		if dt := e.t - prev; dt > 0 && len(leaves) > 0 {
			each := float64(dt) / float64(len(leaves))
			for _, l := range leaves {
				share[l] += each
			}
		}
		prev = e.t
		p := r.spans[e.i].parent
		if e.start {
			if p >= 0 {
				if openKids[p] == 0 {
					dropLeaf(p)
				}
				openKids[p]++
			}
			addLeaf(e.i)
			continue
		}
		dropLeaf(e.i)
		if p >= 0 {
			openKids[p]--
			if openKids[p] == 0 {
				addLeaf(p)
			}
		}
	}
	self := map[string]float64{}
	for i, s := range r.spans {
		share[i] /= float64(time.Second)
		self[s.layer] += share[i]
	}
	return self, share
}
