package sim

// Checkpoint/restore contract tests. The load-bearing invariant is
// bit-identity: a run resumed from a checkpoint taken at any mid-run
// boundary must produce exactly the observables of a never-interrupted
// run — hex-float-exact job records, series, counters and event counts
// — across random federations, both engines, and zero and nonzero
// fault regimes. Checkpointed runs execute on the serial kernel
// whichever engine is selected, so an optimistic run must emit exactly
// the serial run's snapshot bytes. Checkpointing itself must be a pure
// read: a run that emits checkpoints must match a run that doesn't.
// Mismatched or corrupted snapshots must be rejected before any state
// is touched.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// checkpointWorkload builds a random federation plus a run config for
// one property-test coordinate, mirroring the fuzz harness's coordinate
// scheme (policy × selector × staleness × fault regime).
func checkpointWorkload(t *testing.T, seed uint64, polPick, selPick, staleness, faultPick, victimPick byte) (Config, []job.Spec, bool) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed^0xc0ffee))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Logf("workload: %v", err)
		return Config{}, nil, false
	}
	cfg := Config{
		Platform:          plat,
		Initial:           federatedInitial(siteSelectorForIndex(int(selPick))),
		Policy:            multiSitePolicyForIndex(int(polPick), seed),
		UtilStaleness:     float64(staleness % 40),
		Faults:            fuzzFaults(seed, faultPick, victimPick),
		CheckConservation: true,
		MaxTime:           50000,
	}
	return cfg, specs, true
}

// freshComponents re-instantiates the stateful scheduler/policy for a
// new run of the same coordinate (per-run state, like the engine
// identity tests do).
func freshComponents(cfg *Config, seed uint64, polPick, selPick byte) {
	cfg.Initial = federatedInitial(siteSelectorForIndex(int(selPick)))
	cfg.Policy = multiSitePolicyForIndex(int(polPick), seed)
}

func collectCheckpoints(cfg Config, every float64) (*Config, *[]Checkpoint) {
	cks := &[]Checkpoint{}
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(c Checkpoint) error {
		*cks = append(*cks, c)
		return nil
	}
	return &cfg, cks
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	maxCount := 24
	if testing.Short() {
		maxCount = 8
	}
	cfgQuick := &quick.Config{MaxCount: maxCount}
	err := quick.Check(func(seed uint64, engPick, polPick, selPick, staleness, faultPick, victimPick byte) bool {
		base, specs, ok := checkpointWorkload(t, seed, polPick, selPick, staleness, faultPick, victimPick)
		if !ok {
			return true
		}
		if engPick%2 == 1 {
			base.Engine = EngineOptimistic
		}

		// Reference: the straight run with no checkpointing at all.
		plain := base
		plainRes, err := Run(plain, specs)
		if err != nil {
			t.Logf("straight run: %v", err)
			return false
		}
		if plainRes.ambiguousTies {
			// The optimistic straight run hit a measure-zero tie, so its
			// bit-identity with the serial kernel — which every
			// checkpointed run uses — is void for this coordinate.
			t.Logf("seed %d: ambiguous tie observed, skipping comparison", seed)
			return true
		}
		fpPlain := fingerprint(plainRes)

		// Emitting checkpoints must not perturb the run.
		every := 40 + float64(seed%7)*35
		ckCfg, cks := collectCheckpoints(base, every)
		freshComponents(ckCfg, seed, polPick, selPick)
		ckRes, err := Run(*ckCfg, specs)
		if err != nil {
			t.Logf("checkpointed run: %v", err)
			return false
		}
		if fp := fingerprint(ckRes); fp != fpPlain {
			t.Logf("seed %d: checkpointing perturbed the run:\n%s", seed, firstDiff(fpPlain, fp))
			return false
		}
		if base.Engine == EngineOptimistic {
			serialCfg, serialCks := collectCheckpoints(base, every)
			serialCfg.Engine = EngineSerial
			freshComponents(serialCfg, seed, polPick, selPick)
			if _, err := Run(*serialCfg, specs); err != nil {
				t.Logf("serial checkpointed run: %v", err)
				return false
			}
			if !sameCheckpoints(*cks, *serialCks) {
				t.Logf("seed %d: optimistic checkpoint stream differs from the serial one", seed)
				return false
			}
		}
		if len(*cks) == 0 {
			return true // run shorter than one cadence interval
		}

		// Resume from every emitted checkpoint: first (most state still
		// ahead), middle, and last (most state behind) all must converge
		// to the identical final result.
		picks := map[int]bool{0: true, len(*cks) / 2: true, len(*cks) - 1: true}
		for idx := range picks {
			ck := (*cks)[idx]
			resumed := base
			freshComponents(&resumed, seed, polPick, selPick)
			resumed.ResumeFrom = ck.Data
			res, err := Run(resumed, specs)
			if err != nil {
				t.Logf("seed %d: resume from checkpoint %d (t=%v): %v", seed, idx, ck.Time, err)
				return false
			}
			if fp := fingerprint(res); fp != fpPlain {
				t.Logf("seed %d engine %s: resume from checkpoint %d (t=%v) diverged:\n%s",
					seed, resumed.Engine, idx, ck.Time, firstDiff(fpPlain, fp))
				return false
			}
		}
		return true
	}, cfgQuick)
	if err != nil {
		t.Fatal(err)
	}
}

// sameCheckpoints reports whether two checkpoint streams are identical:
// same boundaries, same encodings byte for byte.
func sameCheckpoints(a, b []Checkpoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Events != b[i].Events ||
			a[i].Delta != b[i].Delta || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// withMode rewrites a snapshot's header engine mode and reseals the
// CRC-32C trailer, so only the decoder's mode check can reject it.
func withMode(data []byte, mode string) []byte {
	const modeAt = 32 // after magic, version, config hash and kind hash
	n := int(binary.LittleEndian.Uint64(data[modeAt:]))
	out := append([]byte(nil), data[:modeAt]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(mode)))
	out = append(out, mode...)
	out = append(out, data[modeAt+8+n:len(data)-8]...)
	return binary.LittleEndian.AppendUint64(out, uint64(crc32.Checksum(out, castagnoli)))
}

// checkpointFixture runs one deterministic multi-site workload with
// checkpointing on the given engine and returns the config, specs and
// emitted checkpoints.
func checkpointFixture(t *testing.T, engine string) (Config, []job.Spec, []Checkpoint) {
	t.Helper()
	r := rand.New(rand.NewPCG(404, 405))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Platform:          plat,
		Initial:           federatedInitial(sched.LatencyPenalizedUtil{}),
		Policy:            core.NewResSusWaitRand(99),
		CheckConservation: true,
		Engine:            engine,
	}
	ckCfg, cks := collectCheckpoints(base, 60)
	if _, err := Run(*ckCfg, specs); err != nil {
		t.Fatal(err)
	}
	if len(*cks) == 0 {
		t.Fatal("fixture produced no checkpoints; lower the cadence")
	}
	return base, specs, *cks
}

func TestSnapshotRejectsCorruptionAndMismatch(t *testing.T) {
	base, specs, cks := checkpointFixture(t, EngineSerial)
	data := cks[len(cks)/2].Data

	resume := func(cfg Config, data []byte) error {
		cfg.ResumeFrom = data
		cfg.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
		cfg.Policy = core.NewResSusWaitRand(99)
		_, err := Run(cfg, specs)
		return err
	}

	// The untouched snapshot must resume cleanly.
	if err := resume(base, data); err != nil {
		t.Fatalf("clean resume failed: %v", err)
	}

	// Corruption anywhere must be rejected, never silently absorbed.
	for _, off := range []int{0, 9, len(data) / 3, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x41
		if err := resume(base, bad); err == nil {
			t.Errorf("resume accepted snapshot with byte %d corrupted", off)
		}
	}

	// Truncation must be rejected.
	if err := resume(base, data[:len(data)/2]); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("truncated snapshot: got %v, want ErrSnapshotMismatch", err)
	}

	// A different policy is a different run: config hash mismatch.
	diffPolicy := base
	diffPolicy.Policy = core.NewNoRes()
	diffPolicy.ResumeFrom = data
	diffPolicy.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	if _, err := Run(diffPolicy, specs); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("policy mismatch: got %v, want ErrSnapshotMismatch", err)
	}

	// A different workload is a different run too.
	if err := resume(base, data); err != nil {
		t.Fatalf("sanity re-resume failed: %v", err)
	}
	shorter := specs[:len(specs)-1]
	resumeShort := base
	resumeShort.ResumeFrom = data
	resumeShort.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	resumeShort.Policy = core.NewResSusWaitRand(99)
	if _, err := Run(resumeShort, shorter); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("workload mismatch: got %v, want ErrSnapshotMismatch", err)
	}

	// A version-2 snapshot (tombstoned queue slots, handoff kind table)
	// is rejected by the format version, even with a valid checksum.
	v2 := append([]byte(nil), data[:len(data)-8]...)
	binary.LittleEndian.PutUint64(v2[8:], 2)
	v2 = binary.LittleEndian.AppendUint64(v2, uint64(crc32.Checksum(v2, castagnoli)))
	if err := resume(base, v2); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("version-2 snapshot: got %v, want ErrSnapshotMismatch", err)
	}
	if _, err := ReadSnapshotMeta(v2); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("version-2 metadata: got %v, want ErrSnapshotMismatch", err)
	}

	// Only the serial kernel writes snapshots: a header whose mode is
	// anything else is rejected before the shard sections are read,
	// even with a valid checksum.
	if !bytes.Equal(withMode(data, EngineSerial), data) {
		t.Fatal("withMode does not reproduce the original snapshot")
	}
	for _, mode := range []string{"parallel", EngineOptimistic, ""} {
		if err := resume(base, withMode(data, mode)); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("mode %q: got %v, want ErrSnapshotMismatch", mode, err)
		}
		if _, err := ReadSnapshotMeta(withMode(data, mode)); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("mode %q metadata: got %v, want ErrSnapshotMismatch", mode, err)
		}
	}
}

func TestReplayBisectCleanInterval(t *testing.T) {
	for _, engine := range []string{EngineSerial, EngineOptimistic} {
		base, specs, cks := checkpointFixture(t, engine)
		if len(cks) < 2 {
			t.Fatalf("%s: need two checkpoints, got %d", engine, len(cks))
		}
		from, to := cks[0], cks[len(cks)-1]
		cfg := base
		cfg.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
		cfg.Policy = core.NewResSusWaitRand(99)
		rep, err := ReplayBisect(cfg, specs, from.Data, to.Data)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: healthy interval reported dirty: deterministic=%v matchesRecorded=%v: %s",
				engine, rep.Deterministic, rep.MatchesRecorded, rep.FirstDivergence)
		}
		if rep.ReplayedEvents != to.Events-from.Events {
			t.Fatalf("%s: replayed %d events, interval spans %d",
				engine, rep.ReplayedEvents, to.Events-from.Events)
		}
	}
}

func TestReplayBisectRejectsCrossConfigSnapshots(t *testing.T) {
	baseA, specsA, cksA := checkpointFixture(t, EngineSerial)
	_, _, cksB := func() (Config, []job.Spec, []Checkpoint) {
		r := rand.New(rand.NewPCG(505, 506))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{
			Platform:          plat,
			Initial:           federatedInitial(sched.LocalityFirst{}),
			Policy:            core.NewNoRes(),
			CheckConservation: true,
		}
		ckCfg, cks := collectCheckpoints(base, 60)
		if _, err := Run(*ckCfg, specs); err != nil {
			t.Fatal(err)
		}
		return base, specs, *cks
	}()
	if len(cksB) == 0 {
		t.Skip("second fixture produced no checkpoints")
	}
	if _, err := ReplayBisect(baseA, specsA, cksA[0].Data, cksB[0].Data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("cross-config bisect: got %v, want ErrSnapshotMismatch", err)
	}
}

// TestLoadListsRejectsMalformedLists feeds the placement codec's list
// decoder hand-built sections. Every pool list threads the same link
// fields, so a job listed twice — within one list or across two lists
// of the same load — must be rejected, as must classes out of priority
// order or holding a job of another priority.
func TestLoadListsRejectsMalformedLists(t *testing.T) {
	jobs := make([]jobRT, 4)
	for i := range jobs {
		spec := job.Spec{ID: job.ID(i + 1), Work: 1, Cores: 1, MemMB: 1,
			Priority: job.PriorityLow, Candidates: []int{0}}
		if i >= 2 {
			spec.Priority = job.PriorityHigh
		}
		jobs[i] = jobRT{idx: i, j: job.New(spec)}
		jobs[i].spec = &jobs[i].j.Spec
	}
	type class struct {
		prio job.Priority
		idxs []int
	}
	enc := func(classes ...class) []byte {
		var e snapEncoder
		e.Int(len(classes))
		for _, c := range classes {
			e.Int(int(c.prio))
			e.Ints(c.idxs)
		}
		return e.buf
	}
	load := func(linked []int8, data []byte) (byPrio, error) {
		d := &snapDecoder{data: data}
		b := loadLists(d, jobs, linked, inWaitQueue)
		return b, d.err
	}

	b, err := load(make([]int8, len(jobs)), enc(class{job.PriorityHigh, []int{3, 2}}, class{job.PriorityLow, []int{1, 0}}))
	if err != nil {
		t.Fatalf("valid lists rejected: %v", err)
	}
	var got []int
	for i := range b {
		for rt := b[i].head; rt != nil; rt = rt.next {
			got = append(got, rt.idx)
		}
	}
	if len(got) != 4 || got[0] != 3 || got[1] != 2 || got[2] != 1 || got[3] != 0 {
		t.Fatalf("loaded order %v, want [3 2 1 0]", got)
	}

	for name, data := range map[string][]byte{
		"duplicate in one list": enc(class{job.PriorityLow, []int{0, 1, 0}}),
		"ascending priorities":  enc(class{job.PriorityLow, []int{0}}, class{job.PriorityHigh, []int{2}}),
		"priority mismatch":     enc(class{job.PriorityHigh, []int{0}}),
		"index out of range":    enc(class{job.PriorityLow, []int{4}}),
		"negative index":        enc(class{job.PriorityLow, []int{-1}}),
		"truncated":             enc(class{job.PriorityLow, []int{0, 1}})[:30],
	} {
		if _, err := load(make([]int8, len(jobs)), data); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: got %v, want ErrSnapshotMismatch", name, err)
		}
	}
	linked := make([]int8, len(jobs))
	if _, err := load(linked, enc(class{job.PriorityLow, []int{0}})); err != nil {
		t.Fatal(err)
	}
	if _, err := load(linked, enc(class{job.PriorityLow, []int{1, 0}})); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("job listed in two lists: got %v, want ErrSnapshotMismatch", err)
	}
}
