package pgas

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cafshmem/internal/fabric"
)

// runProgram executes a small RMA+wait+barrier program with the given options
// and returns the final virtual time of every PE. PE i writes a flag word
// into PE (i+1)%n at a per-round visibility time, waits for its own flag,
// merges the recorded timestamp, and barriers.
func runProgram(t *testing.T, opts Options, n, rounds int) []float64 {
	t.Helper()
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, n)
	err = w.Run(func(p *PE) {
		for r := 1; r <= rounds; r++ {
			dst := (p.ID + 1) % n
			p.Clock.Advance(float64(10 * r))
			w.WriteUint64(dst, 64, uint64(r), p.Clock.Now()+5)
			ts := p.WaitUntil64(64, func(v uint64) bool { return v >= uint64(r) })
			p.Clock.MergeAtLeast(ts)
			p.Barrier(100)
		}
		times[p.ID] = p.Clock.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	return times
}

// legacyProgramTimes are runProgram's per-PE final virtual times for
// n = 2, 7 and 32 (5 rounds) as the goroutine-per-PE engine produced them
// before it was deleted: one goroutine per PE, each running concurrently
// with no worker bound. They are literal data, not re-derived, so the engine
// that replaced it is held to the legacy values rather than to itself.
var legacyProgramTimes = map[int][]float64{
	2:  {675, 675},
	7:  {675, 675, 675, 675, 675, 675, 675},
	32: {675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675, 675},
}

// TestEngineMatchesLegacyGoldens is the substrate-level bit-identity check:
// the program reproduces the legacy engine's per-PE final virtual times under
// every worker pool — one worker (fully serialised), two, and one per PE —
// and every barrier shard layout.
func TestEngineMatchesLegacyGoldens(t *testing.T) {
	for n, want := range legacyProgramTimes {
		for _, workers := range []int{1, 2, n} {
			for _, shards := range []int{0, 2, n + 3} {
				got := runProgram(t, Options{Workers: workers, BarrierShards: shards}, n, 5)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d workers=%d shards=%d PE %d: %v, legacy golden %v",
							n, workers, shards, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEventEngineBoundedWorkers verifies the pool bound: with Workers=2, no
// more than two PE bodies are ever between slot acquisition and release.
func TestEventEngineBoundedWorkers(t *testing.T) {
	const n, workers = 16, 2
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var running, peak atomic.Int32
	enter := func() {
		r := running.Add(1)
		for {
			p := peak.Load()
			if r <= p || peak.CompareAndSwap(p, r) {
				break
			}
		}
	}
	err = w.Run(func(p *PE) {
		for r := 1; r <= 4; r++ {
			enter()
			w.WriteUint64((p.ID+1)%n, 0, uint64(r), float64(r))
			running.Add(-1)
			p.WaitUntil64(0, func(v uint64) bool { return v >= uint64(r) })
			enter()
			running.Add(-1)
			p.Barrier(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrently running bodies, worker pool is %d", got, workers)
	}
}

// TestEventEngineDeadlockDetected checks the world's single-goroutine
// watchdog: a world whose PEs all wait on flags nobody will ever write must
// be poisoned with the watchdog diagnostic rather than hang.
func TestEventEngineDeadlockDetected(t *testing.T) {
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, 4, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		p.WaitUntil64(0, func(v uint64) bool { return v != 0 })
	})
	if err == nil {
		t.Fatal("expected deadlock poisoning, got nil error")
	}
	if !strings.Contains(err.Error(), "hang watchdog") {
		t.Fatalf("expected hang-watchdog diagnostic, got: %v", err)
	}
}

// TestEventEngineFaultFanout exercises departures under the watcher-registry
// fan-out: PEs blocked on a flag owned by a failing PE must observe the
// failure through WaitUntilStat instead of hanging, on a serialised and a
// concurrent worker pool alike.
func TestEventEngineFaultFanout(t *testing.T) {
	for _, opts := range []Options{{Workers: 1}, {Workers: 2}} {
		opts := opts
		t.Run(fmt.Sprintf("workers=%d", opts.Workers), func(t *testing.T) {
			const n = 6
			w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			var faults atomic.Int32
			err = w.Run(func(p *PE) {
				if p.ID == 0 {
					p.Clock.Advance(50)
					p.Fail()
				}
				_, werr := p.WaitUntilStat(0, 8, func(b []byte) bool { return b[0] != 0 },
					func() error {
						if w.Failed(0) {
							return fmt.Errorf("producer failed")
						}
						return nil
					})
				if werr != nil && werr.Error() == "producer failed" {
					faults.Add(1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := faults.Load(); got != n-1 {
				t.Fatalf("expected %d waiters to observe the failure, got %d", n-1, got)
			}
		})
	}
}

// runWithin runs w.Run(body) and fails the test if it has not returned after
// limit: a starved PE holds no park, so the hang watchdog cannot catch it.
func runWithin(t *testing.T, w *World, limit time.Duration, body func(*PE)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("run still going after %v: a PE starved on the worker pool", limit)
		return nil
	}
}

// TestYieldUnblocksStatusSpin is the single-worker starvation regression: PE
// 0 busy-polls Failed(1) while PE 1, queued behind it for the only slot, is
// the PE that will fail. Without the yield the spinner keeps the slot
// forever; the hang watchdog never fires because the spinner is not parked.
func TestYieldUnblocksStatusSpin(t *testing.T) {
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	err = runWithin(t, w, 10*time.Second, func(p *PE) {
		if p.ID == 1 {
			p.WaitUntil64(0, func(v uint64) bool { return v == 1 })
			p.Clock.Advance(50)
			p.Fail()
		}
		// Release PE 1, then spin on its status the way an image_status
		// loop does: whichever PE started first, PE 1 now waits for the slot.
		w.WriteUint64(1, 0, 1, 10)
		for !w.Failed(1) {
			polls.Add(1)
			p.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if polls.Load() == 0 {
		t.Fatal("PE 0 never polled: the spin was not exercised")
	}
}

// TestYieldQueueStaysBounded: PEs that only ever yield to each other never
// let the ready queue drain, so the queue must recycle its consumed front
// instead of growing past the world size it was sized to at construction.
func TestYieldQueueStaysBounded(t *testing.T) {
	const n = 3
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = runWithin(t, w, 10*time.Second, func(p *PE) {
		for i := 0; i < 10000; i++ {
			p.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(w.sched.ready); c != n {
		t.Fatalf("ready queue capacity grew to %d, want %d", c, n)
	}
}
