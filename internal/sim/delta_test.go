package sim

// Delta-snapshot contract tests: the codec round-trips arbitrary edits,
// a keyframed checkpoint stream reconstructs and resumes bit-identically
// from full and delta members alike, and every corruption or mis-chain
// is rejected with ErrSnapshotMismatch.

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/sched"
)

// TestDeltaCodecRoundTrip drives encodeSnapshotDelta/ApplySnapshotDelta
// over synthetic base/full pairs covering in-place mutation, insertion,
// deletion, growth and shrinkage — the shapes a snapshot stream
// actually produces.
func TestDeltaCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.UintN(256))
		}
		return b
	}
	base := randBytes(8192)
	cases := map[string]func() []byte{
		"identical": func() []byte { return append([]byte(nil), base...) },
		"mutated": func() []byte {
			f := append([]byte(nil), base...)
			for i := 0; i < 20; i++ {
				f[r.IntN(len(f))] ^= 0x5a
			}
			return f
		},
		"inserted": func() []byte {
			at := r.IntN(len(base))
			return append(append(append([]byte(nil), base[:at]...), randBytes(300)...), base[at:]...)
		},
		"deleted": func() []byte {
			at := r.IntN(len(base) - 500)
			return append(append([]byte(nil), base[:at]...), base[at+500:]...)
		},
		"appended":  func() []byte { return append(append([]byte(nil), base...), randBytes(700)...) },
		"unrelated": func() []byte { return randBytes(4096) },
		"tiny":      func() []byte { return randBytes(16) },
		"empty":     func() []byte { return nil },
	}
	for name, gen := range cases {
		full := gen()
		delta := encodeSnapshotDelta(base, full, 1, 2, 10, 20)
		got, err := ApplySnapshotDelta(base, delta)
		if err != nil {
			t.Fatalf("%s: apply: %v", name, err)
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("%s: reconstruction differs (%d vs %d bytes)", name, len(got), len(full))
		}
		meta, err := ReadDeltaMeta(delta)
		if err != nil {
			t.Fatalf("%s: meta: %v", name, err)
		}
		if meta.BaseTime != 1 || meta.Time != 2 || meta.BaseEvents != 10 || meta.Events != 20 {
			t.Fatalf("%s: meta round-trip: %+v", name, meta)
		}
		if !IsDeltaSnapshot(delta) || IsDeltaSnapshot(full) && len(full) > 0 {
			t.Fatalf("%s: magic classification wrong", name)
		}
	}
	// Near-identical inputs must compress hard: this is the payoff the
	// checkpointer's keyframe mode banks on.
	full := append([]byte(nil), base...)
	full[100] ^= 1
	if delta := encodeSnapshotDelta(base, full, 0, 0, 0, 0); len(delta) > len(full)/4 {
		t.Fatalf("single-byte edit delta is %d bytes of %d full", len(delta), len(full))
	}
}

// deltaFixture runs one deterministic multi-site workload with a
// keyframed checkpoint stream on the given engine and returns the base
// config, specs, the emitted checkpoints, and the straight-run
// fingerprint.
func deltaFixture(t *testing.T, engine string) (Config, []job.Spec, []Checkpoint, string) {
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
	plainRes, err := Run(freshDeltaComponents(base), specs)
	if err != nil {
		t.Fatal(err)
	}
	ckCfg, cks := collectCheckpoints(freshDeltaComponents(base), 60)
	ckCfg.CheckpointKeyframe = 4
	if _, err := Run(*ckCfg, specs); err != nil {
		t.Fatal(err)
	}
	if len(*cks) < 6 {
		t.Fatalf("fixture emitted only %d checkpoints; need a keyframe cycle plus deltas", len(*cks))
	}
	return base, specs, *cks, fingerprint(plainRes)
}

// freshDeltaComponents gives cfg its own stateful scheduler and policy
// instances: both carry run state (rotations, RNG streams), so every
// Run of the fixture needs fresh ones.
func freshDeltaComponents(cfg Config) Config {
	cfg.Initial = federatedInitial(sched.LatencyPenalizedUtil{})
	cfg.Policy = core.NewResSusWaitRand(99)
	return cfg
}

// reconstructChain resolves every checkpoint of a keyframed stream to
// full snapshot bytes, mirroring what the experiments runner does with
// .ckpt/.dckpt files.
func reconstructChain(t *testing.T, cks []Checkpoint) [][]byte {
	t.Helper()
	fulls := make([][]byte, len(cks))
	for i, ck := range cks {
		if !ck.Delta {
			if IsDeltaSnapshot(ck.Data) {
				t.Fatalf("checkpoint %d: Delta flag false but bytes are a delta", i)
			}
			fulls[i] = ck.Data
			continue
		}
		if i == 0 {
			t.Fatal("first emitted checkpoint is a delta; every chain must start at a keyframe")
		}
		full, err := ApplySnapshotDelta(fulls[i-1], ck.Data)
		if err != nil {
			t.Fatalf("checkpoint %d: apply delta: %v", i, err)
		}
		fulls[i] = full
	}
	return fulls
}

// TestDeltaSnapshotChain checks the keyframed stream end to end on both
// engines: the emission pattern honors the keyframe cadence, deltas
// shrink the stream, the optimistic engine (which checkpoints on the
// serial kernel) emits the serial stream byte for byte, and resuming
// from a keyframe, from a mid-chain delta, from the delta straight
// after a keyframe boundary, and from the last checkpoint all reproduce
// the straight run bit-identically.
func TestDeltaSnapshotChain(t *testing.T) {
	_, _, serialCks, _ := deltaFixture(t, EngineSerial)
	for _, engine := range []string{EngineSerial, EngineOptimistic} {
		t.Run(engine, func(t *testing.T) {
			base, specs, cks, fpPlain := deltaFixture(t, engine)
			if !sameCheckpoints(cks, serialCks) {
				t.Fatal("checkpoint stream differs from the serial engine's")
			}
			deltas := 0
			for i, ck := range cks {
				wantFull := i%4 == 0
				if wantFull && ck.Delta {
					t.Fatalf("checkpoint %d: keyframe slot emitted a delta", i)
				}
				if ck.Delta {
					deltas++
				}
			}
			if deltas == 0 {
				t.Fatal("keyframed stream emitted no deltas (every delta fell back to full?)")
			}
			fulls := reconstructChain(t, cks)

			// A raw delta must be rejected as ResumeFrom before any state
			// is touched.
			for i, ck := range cks {
				if !ck.Delta {
					continue
				}
				bad := base
				bad.ResumeFrom = ck.Data
				if _, err := Run(bad, specs); !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("checkpoint %d: raw delta resume: want ErrSnapshotMismatch, got %v", i, err)
				}
				break
			}

			picks := map[string]int{
				"keyframe":       4,            // a keyframe boundary
				"after-keyframe": 5,            // first delta of a cycle
				"mid-chain":      6,            // delta chaining through another delta
				"last":           len(cks) - 1, // whatever the stream ends on
			}
			for what, idx := range picks {
				resumed := freshDeltaComponents(base)
				resumed.ResumeFrom = fulls[idx]
				res, err := Run(resumed, specs)
				if err != nil {
					t.Fatalf("resume from %s (checkpoint %d, t=%v): %v", what, idx, cks[idx].Time, err)
				}
				if fp := fingerprint(res); fp != fpPlain {
					t.Fatalf("resume from %s (checkpoint %d, t=%v) diverged:\n%s",
						what, idx, cks[idx].Time, firstDiff(fpPlain, fp))
				}
			}
		})
	}
}

// TestDeltaCorruptionRejected flips bytes in a real delta and chains it
// against the wrong base: every failure mode must be
// ErrSnapshotMismatch and never a wrong reconstruction.
func TestDeltaCorruptionRejected(t *testing.T) {
	_, _, cks, _ := deltaFixture(t, EngineSerial)
	di := -1
	for i, ck := range cks {
		if ck.Delta {
			di = i
			break
		}
	}
	if di <= 0 {
		t.Fatal("fixture emitted no delta")
	}
	fulls := reconstructChain(t, cks)
	base, delta := fulls[di-1], cks[di].Data

	for _, at := range []int{0, 8, len(delta) / 2, len(delta) - 9, len(delta) - 1} {
		bad := append([]byte(nil), delta...)
		bad[at] ^= 0x40
		if _, err := ApplySnapshotDelta(base, bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("flip at %d: want ErrSnapshotMismatch, got %v", at, err)
		}
	}
	if _, err := ApplySnapshotDelta(delta, delta); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("delta applied to itself as base: want ErrSnapshotMismatch, got %v", err)
	}
	if di+1 < len(cks) && cks[di+1].Delta {
		// Skipping a link: the next delta must refuse the earlier base.
		if _, err := ApplySnapshotDelta(base, cks[di+1].Data); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("delta applied across a gap: want ErrSnapshotMismatch, got %v", err)
		}
	}
	if _, err := ApplySnapshotDelta(nil, delta[:16]); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("truncated delta: want ErrSnapshotMismatch, got %v", err)
	}
	if _, err := ApplySnapshotDelta(nil, fulls[0]); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("full snapshot as delta: want ErrSnapshotMismatch, got %v", err)
	}
}

// TestDeltaRollingHashKeyRegression pins the rollHash.sum key layout.
// The original formula (a ^ b<<16 ^ b>>16) folded b's high bits into
// the same low half as a, so two windows whose byte sums differed
// could still collide in the block index — and with first-writer-wins
// indexing the second block was silently never indexed, turning its
// every occurrence in the new snapshot into literal bytes. The fix
// keeps a and b in disjoint halves (a is at most deltaBlock*255, well
// under 16 bits). This test hand-builds such a pair and checks both
// the key property and the observable consequence: the match rate on
// a snapshot that merely reorders the colliding content.
func TestDeltaRollingHashKeyRegression(t *testing.T) {
	// blockA: uniform 128s. a = 64*128 = 8192, b = 128*Σ(1..64) =
	// 266240 = 4<<16 | 0x1000.
	blockA := bytes.Repeat([]byte{128}, deltaBlock)
	// blockB: uniform 128s reshaped by weight-preserving edits so that
	// a = 8193 and b = 331776 = 5<<16 | 0x1000 — same low half of b,
	// b>>16 bumped by one, a bumped by one to cancel it in the old
	// key's xor. Weights are 64-i for position i.
	blockB := bytes.Repeat([]byte{128}, deltaBlock)
	for i := 0; i < 9; i++ {
		blockB[i] += 127    // weights 64..56: +127 each
		blockB[63-i] -= 127 // weights 1..9:   -127 each
	}
	blockB[9] += 58  // weight 55
	blockB[54] -= 58 // weight 10
	blockB[14] += 2  // weight 50
	blockB[44] -= 2  // weight 20
	blockB[63] += 1  // weight 1: the +1 on a

	hA, hB := rollInit(blockA), rollInit(blockB)
	if hA.a != 8192 || hA.b != 266240 || hB.a != 8193 || hB.b != 331776 {
		t.Fatalf("fixture drifted: got (%d,%d) and (%d,%d)", hA.a, hA.b, hB.a, hB.b)
	}
	oldSum := func(h rollHash) uint32 { return h.a ^ h.b<<16 ^ h.b>>16 }
	if oldSum(hA) != oldSum(hB) {
		t.Fatalf("fixture no longer collides under the historical key: %#x vs %#x",
			oldSum(hA), oldSum(hB))
	}
	if hA.sum() == hB.sum() {
		t.Fatalf("distinct windows share an index key: %#x (a differs: %d vs %d)",
			hA.sum(), hA.a, hB.a)
	}

	// Observable half: a base of A-runs then B-runs, and a new snapshot
	// with the halves swapped. Every byte of full exists verbatim in
	// base, so the delta should be a couple of long COPY ops. Under the
	// colliding key, blockB never made it into the index and its whole
	// half degenerated to literals — thousands of bytes instead of
	// hundreds.
	base := append(bytes.Repeat(blockA, 32), bytes.Repeat(blockB, 32)...)
	full := append(bytes.Repeat(blockB, 32), bytes.Repeat(blockA, 32)...)
	delta := encodeSnapshotDelta(base, full, 1, 2, 10, 20)
	got, err := ApplySnapshotDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("reordered snapshot did not reconstruct")
	}
	if len(delta) > len(full)/8 {
		t.Fatalf("reordered content matched poorly: delta %d bytes of %d full (index collision?)",
			len(delta), len(full))
	}
}
