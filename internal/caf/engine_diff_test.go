package caf_test

// Differential property test for the pgas execution engine: the same random
// program — one-sided puts/gets, nonblocking puts with per-image completion,
// locks, fetch-adds, put-with-signal notify/wait, and STAT-bearing barriers,
// optionally under a seeded lossy/killing fault plan — must produce
// bit-identical virtual times, Stat outcomes, operation counters, payload
// checksums, and link forensics on every worker pool and barrier shard
// layout, and must reproduce what the deleted goroutine-per-image engine
// produced (recorded below as fingerprints). The engine is host-time
// machinery only; nothing it schedules may leak into the simulation.
//
// Determinism of the *program* (so that any divergence is the engine's
// fault) comes from two rules, the same ones the chaos replay tests use:
//
//   - Contended resources are touched through a per-round permutation whose
//     shift is derived from (seed, round) alone: every lock, atomic and
//     signal slot has exactly one contender per round, so acquisition order
//     can never depend on engine scheduling.
//   - Cross-image data dependencies are separated by SyncAllStat barriers:
//     a round reads only what the previous round's barrier made stable, and
//     fault observations happen at deterministic barrier generations (the
//     plan's victim is nobody's target — it computes and syncs until it
//     dies, exactly the dhtLossRun protocol).

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// diffOutcome is everything one differential run determines. Two runs of the
// same (seed, plan) under different worker pools or shard layouts must be
// DeepEqual.
type diffOutcome struct {
	Times    []float64        // final virtual clock per image
	Stats    []caf.Stat       // first non-OK sync stat per image (OK if none)
	ObsRound []int            // round where that stat was observed (-1 = never)
	Fetched  [][]int64        // per image: FetchAdd return value per round
	Sums     []int64          // per image: checksum of all Get payloads
	WaitSeen [][]caf.Stat     // per image: signal WaitStat result per round
	OpStats  []caf.Stats      // per image: runtime op counters
	Reports  []caf.LinkReport // image 1's reliability forensics
}

// diffSplitmix is the same mix the dht key stream uses; here it derives the
// per-round permutation shifts and put payloads from (seed, round, image).
func diffSplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// diffRun executes the random program for (seed, plan) on the given worker
// count (0 = GOMAXPROCS) and barrier shard layout (0 = auto).
func diffRun(t *testing.T, seed uint64, plan *fabric.FaultPlan, workers, shards int) diffOutcome {
	t.Helper()
	const n, rounds, span = 6, 10, 8

	// Survivors (images the plan never kills) form the permutation domain;
	// victims are excluded up front so their deaths are observed only at
	// barriers, never mid-wait on a signal that cannot come.
	victim := map[int]bool{}
	if plan != nil {
		for _, k := range plan.Kills {
			victim[k.PE+1] = true
		}
	}
	surv := []int{}
	for i := 1; i <= n; i++ {
		if !victim[i] {
			surv = append(surv, i)
		}
	}
	m := len(surv)
	rank := map[int]int{} // image -> index in surv
	for k, img := range surv {
		rank[img] = k
	}

	out := diffOutcome{
		Times:    make([]float64, n),
		Stats:    make([]caf.Stat, n),
		ObsRound: make([]int, n),
		Fetched:  make([][]int64, n),
		Sums:     make([]int64, n),
		WaitSeen: make([][]caf.Stat, n),
		OpStats:  make([]caf.Stats, n),
	}
	for i := range out.ObsRound {
		out.ObsRound[i] = -1
	}

	opts := chaosOpts(plan)
	opts.Workers, opts.BarrierShards = workers, shards
	err := caf.Run(n, opts, func(img *caf.Image) {
		me := img.ThisImage()
		x := caf.Allocate[int64](img, span)
		lk := caf.NewLock(img)
		av := caf.NewAtomicVar(img)
		sig := caf.NewSignal(img)
		if s := img.SyncAllStat(); s != caf.StatOK {
			out.Stats[me-1] = s
			out.ObsRound[me-1] = 0
			return
		}
		vals := make([]int64, span)
		for r := 0; r < rounds; r++ {
			if victim[me] {
				img.Clock().Advance(5000) // computes until its kill time
			} else {
				// Round-wide permutation shift from (seed, round) only:
				// exactly one contender per lock/atomic/signal slot.
				shift := 1 + int(diffSplitmix(seed^uint64(r)*0x1000193)%uint64(m-1))
				k := rank[me]
				target := surv[(k+shift)%m]
				sender := surv[(k-shift+m*rounds)%m]

				// Read what the previous round's barrier made stable.
				for _, v := range x.Get(target, caf.All(span)) {
					out.Sums[me-1] = out.Sums[me-1]*31 + v
				}

				// Blocking put under the target's lock (single contender,
				// but the lock traffic itself crosses the lossy fabric).
				for b := range vals {
					vals[b] = int64(diffSplitmix(seed ^ uint64(me)<<20 ^ uint64(r)<<8 ^ uint64(b)))
				}
				lk.Acquire(target)
				x.PutFull(target, vals)
				lk.Release(target)

				// Nonblocking put + per-image completion, then a signal so
				// the receiver knows this round's async data landed.
				x.PutAsync(target, caf.Section{{Lo: 0, Hi: span/2 - 1, Step: 1}}, vals[:span/2])
				img.SyncMemoryImage(target)
				sig.Notify(target)

				// One fetch-add per target per round: the fetched value is
				// the deterministic sum of earlier rounds' contributions.
				out.Fetched[me-1] = append(out.Fetched[me-1], av.FetchAdd(target, int64(r+1)))

				// Consume the one notify aimed at this image this round.
				out.WaitSeen[me-1] = append(out.WaitSeen[me-1], sig.WaitStat(sender))
			}
			if s := img.SyncAllStat(); s != caf.StatOK {
				out.Stats[me-1] = s
				out.ObsRound[me-1] = r
				break
			}
		}
		out.Times[me-1] = img.Clock().Now()
		out.OpStats[me-1] = img.Stats
		if me == 1 {
			out.Reports = img.LinkReports()
		}
	})
	if err != nil {
		t.Fatalf("seed %d workers=%d shards=%d: run errored (hang or panic): %v", seed, workers, shards, err)
	}
	return out
}

// diffPlans returns the three fault regimes the differential test sweeps:
// loss-free, pure message loss, and loss with one mid-run kill.
func diffPlans(seed uint64) map[string]*fabric.FaultPlan {
	lossy := fabric.RandomPlan(seed, 6, 0, 0, 0)
	lossy.Losses = []fabric.LinkLoss{lossRule(0, 0)}
	killer := fabric.RandomPlan(seed, 6, 1, 40_000, 250_000)
	killer.Losses = []fabric.LinkLoss{lossRule(0, 0)}
	return map[string]*fabric.FaultPlan{"clean": nil, "loss": lossy, "losskill": killer}
}

// diffFingerprint hashes everything a differential run determines (FNV-1a
// over the outcome's %+v rendering, which prints float64s exactly).
func diffFingerprint(out diffOutcome) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", out)
	return fmt.Sprintf("%016x", h.Sum64())
}

// legacyDiffFingerprints are diffFingerprint of the reference run per
// "seed/plan", recorded from the goroutine-per-image engine (one goroutine
// per image, no worker bound, auto shard layout) before it was deleted. They
// are literal data: the engine that replaced it is held to the legacy
// outcomes, not to itself.
var legacyDiffFingerprints = map[string]string{
	"101/clean":    "841fcea613b4cf46",
	"101/loss":     "6dab767d6a3e8fc7",
	"101/losskill": "d6c2628def6413b5",
	"202/clean":    "0608a88aefa2dde0",
	"202/loss":     "8adf6034914e8a53",
	"202/losskill": "17050d9a81066b1d",
	"303/clean":    "d3f536f9db88bdcb",
	"303/loss":     "a748cb86af9e8da9",
	"303/losskill": "6e1b133da68c2801",
}

// TestEngineDifferential is the replay property across host layouts: every
// worker pool — one worker (fully serialised), two, and one per image —
// crossed with every barrier shard layout (auto, single shard, two, an odd
// split, and more shards than images) must reproduce the legacy engine's
// outcome bit-for-bit on every observable of the random program, in every
// fault regime. Workers and shards are host-side machinery: nothing about how
// tasks are scheduled or arrivals combine may leak into the simulation.
func TestEngineDifferential(t *testing.T) {
	const images = 6
	for _, seed := range []uint64{101, 202, 303} {
		for name, plan := range diffPlans(seed) {
			key := fmt.Sprintf("%d/%s", seed, name)
			want, ok := legacyDiffFingerprints[key]
			if !ok {
				t.Fatalf("%s: no legacy fingerprint recorded", key)
			}
			var ref *diffOutcome
			for _, workers := range []int{1, 2, images} {
				for _, shards := range []int{0, 1, 2, 3, 8} {
					got := diffRun(t, seed, plan, workers, shards)
					for pe, s := range got.Stats {
						if !isLegalStat(s) {
							t.Errorf("%s workers=%d shards=%d: image %d illegal stat %v", key, workers, shards, pe+1, s)
						}
					}
					if fp := diffFingerprint(got); fp != want {
						t.Errorf("%s workers=%d shards=%d: fingerprint %s, legacy golden %s:\n%+v",
							key, workers, shards, fp, want, got)
					}
					if ref == nil {
						ref = &got
					} else if !reflect.DeepEqual(*ref, got) {
						t.Errorf("%s workers=%d shards=%d diverged from workers=1 shards=0:\n%+v\nvs\n%+v",
							key, workers, shards, *ref, got)
					}
				}
			}
		}
	}
}

// TestEngineDifferentialKillObserved pins that the losskill regime actually
// exercises the fault path — a kill window nobody observes would silently
// reduce the differential test to the loss-only case.
func TestEngineDifferentialKillObserved(t *testing.T) {
	seed := uint64(101)
	out := diffRun(t, seed, diffPlans(seed)["losskill"], 2, 2)
	obs := false
	for _, s := range out.Stats {
		if s == caf.StatFailedImage {
			obs = true
		}
	}
	if !obs {
		t.Fatalf("seed %d: no image observed the kill (window missed the run): %+v", seed, out.Stats)
	}
	if retries, _ := sumRetries(out.Reports); retries == 0 {
		t.Fatalf("seed %d: no retransmissions under 20%% drop", seed)
	}
}
