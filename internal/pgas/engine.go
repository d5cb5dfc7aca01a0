package pgas

// Execution engine. Every modelled result is a pure function of (program,
// machine model, fault plan): writes carry caller-computed visibility
// timestamps, waits merge the maximum recorded timestamp over their range,
// and barriers aggregate an order-independent maximum — so how PE bodies get
// host CPU time cannot leak into the virtual time of a program whose
// cross-image interactions are arbitrated by the modelled synchronisation.
// The one arbitration the substrate does not model is arrival order at a
// contended atomic word (RMW64 applies operations in host arrival order).
//
// PEs are resumable tasks over a bounded pool of Options.Workers slots. A PE
// that blocks registers its wake condition (a watch range, a barrier
// generation), parks, and hands its slot to the next ready PE. Wakeups are
// targeted and slot-granting: a wake delivers a worker slot with it
// (immediately when one is free, FIFO-queued otherwise), so resuming costs
// one scheduling hop. A PE that polls world state without blocking (an
// image_status spin) yields its slot between polls (PE.Yield). One watchdog
// goroutine per world poisons an all-parked, event-free world.
//
// Task states (DESIGN.md "Execution engine"):
//
//	running  — holds a worker slot, executing the PE body
//	parked   — wake condition registered, slot handed off, blocked on the
//	           grant channel (a wake that races ahead of the park sets a
//	           sticky ready flag the park consumes, so it is never lost)
//	ready    — woken, started or yielding; queued for a worker slot, and
//	           the grant is the wakeup
//	done     — body returned (stopped) or executed a fail-image (failed)

import (
	"runtime"
	"sync"
	"time"
)

// Options configures world construction beyond machine and size.
type Options struct {
	// Workers bounds how many PE bodies run concurrently. Zero means
	// GOMAXPROCS.
	Workers int
	// BarrierShards overrides the world barrier's leaf-shard count (see
	// barrier.go). Zero auto-sizes to one shard per 256 PEs; values are
	// clamped to [1, NumPEs]. Shard layout is a host-side performance knob:
	// the barrier's virtual-time results are bit-identical across layouts
	// (the tree aggregates an order-independent max), which the engine
	// differential gate checks.
	BarrierShards int
}

// sched is the central scheduler state, embedded in World. It tracks the
// PEs whose wake condition is a registered watch, so fault fan-outs
// (departures, repair writes, links given up) wake exactly the PEs that can
// act on them instead of scanning every partition in the world — and it owns
// the worker-slot dispatch.
type sched struct {
	mu       sync.Mutex
	watchers map[*PE]struct{}

	// Slot dispatch, guarded by dmu (separate from the watcher registry so
	// watch churn and park/wake traffic do not contend). free counts slots
	// held by no PE; ready[head:] is the FIFO of slotless PEs with a pending
	// wake, a not-yet-started body or a yield, each owed one slot grant.
	dmu   sync.Mutex
	free  int
	ready []*PE
	head  int
}

// noteWatcher records that p holds at least one registered watch.
func (s *sched) noteWatcher(p *PE) {
	s.mu.Lock()
	s.watchers[p] = struct{}{}
	s.mu.Unlock()
}

// dropWatcher records that p's last watch was deregistered.
func (s *sched) dropWatcher(p *PE) {
	s.mu.Lock()
	delete(s.watchers, p)
	s.mu.Unlock()
}

// snapshot appends the current watch-holding PEs to buf and returns it.
func (s *sched) snapshot(buf []*PE) []*PE {
	s.mu.Lock()
	for p := range s.watchers {
		buf = append(buf, p)
	}
	s.mu.Unlock()
	return buf
}

// pushLocked queues p for a slot grant. The queue is sized to the world at
// construction; when appending would regrow it while consumed entries sit
// at the front, the live tail is compacted down first, so a queue that never
// fully drains (PEs yielding to each other) stays within world capacity.
// Must be called with dmu held.
func (s *sched) pushLocked(p *PE) {
	if len(s.ready) == cap(s.ready) && s.head > 0 {
		n := copy(s.ready, s.ready[s.head:])
		clear(s.ready[n:])
		s.ready = s.ready[:n]
		s.head = 0
	}
	s.ready = append(s.ready, p)
}

// grantLocked hands a freed worker slot to the next ready PE, or banks it in
// the free pool when nobody waits. Must be called with dmu held. The grant
// send never blocks: p.wake is buffered(1) and the state machine allows at
// most one outstanding grant per PE (a PE re-enters the ready queue only
// after consuming its previous grant).
func (s *sched) grantLocked() {
	if s.head < len(s.ready) {
		q := s.ready[s.head]
		s.ready[s.head] = nil
		s.head++
		if s.head == len(s.ready) {
			s.ready = s.ready[:0]
			s.head = 0
		}
		q.wake <- struct{}{}
		return
	}
	s.free++
}

// readyLocked delivers a wake event to p. If p is parked it becomes ready
// and is granted a worker slot — immediately when one is free, FIFO-queued
// otherwise — so the wake and the slot arrive as one scheduling hop. If p is
// running (or already granted), the event is noted in a sticky flag consumed
// by p's next park, so a wake racing ahead of the park is never lost. Must be
// called with dmu held.
func (s *sched) readyLocked(p *PE) {
	if !p.parked {
		p.readyFlag = true
		return
	}
	p.parked = false
	if s.free > 0 {
		s.free--
		p.wake <- struct{}{}
		return
	}
	s.pushLocked(p)
}

// wakeEvent marks a wake-relevant event for p (see readyLocked). Callers need
// not hold any lock; the virtual-time results cannot depend on any of this
// (see the package comment), which the engine golden gate checks.
func (w *World) wakeEvent(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	s.readyLocked(p)
	s.dmu.Unlock()
}

// wakeBarrierShard completes one barrier shard's generation: it fills every
// registered waiter record in the shard's contiguous arena slice — result
// fields (or the poison mark) first, then the atomic done flag that
// publishes them — and wakes the waiters under a single dispatch-lock
// acquisition. At 100k images the release fan-out would otherwise pay a
// lock hand-off per waiter; batching per shard (rather than per world) keeps
// the walk a sequential pass over one arena. self — the PE running the
// release, if any — gets its record filled but no wake dispatch: it is
// running, and a sticky readyFlag would go stale. Caller holds the shard
// mutex, so registration cannot race the walk.
func (w *World) wakeBarrierShard(arena []bWaiter, outT float64, outErr error, poisoned bool, self *PE) {
	s := &w.sched
	s.dmu.Lock()
	for i := range arena {
		bw := &arena[i]
		if !bw.waiting {
			continue
		}
		bw.waiting = false
		bw.outT, bw.outErr, bw.poisoned = outT, outErr, poisoned
		bw.done.Store(true)
		if bw.p != self {
			s.readyLocked(bw.p)
		}
	}
	s.dmu.Unlock()
}

// parkAndWait releases the calling PE's worker slot (handing it to the next
// ready PE) and parks until a wake event grants a slot back. If a wake
// already arrived — the sticky flag — it returns immediately, keeping the
// slot. Returns may be spurious; callers re-check their predicate in a loop.
// No locks may be held by the caller.
func (w *World) parkAndWait(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	if p.readyFlag {
		p.readyFlag = false
		s.dmu.Unlock()
		return
	}
	p.parked = true
	s.grantLocked()
	s.dmu.Unlock()
	<-p.wake
}

// Yield lets queued PEs run: when the ready queue is non-empty, the calling
// PE joins its tail and hands its worker slot to the head, resuming when the
// queue comes round to it; otherwise it returns at once. A PE that polls
// world state without blocking — a spin on a peer's image_status — holds its
// slot for the whole spin, and with a single worker the peer it waits on
// would never run; the non-blocking fault-status queries programs spin on
// call Yield between polls. Ordinary RMA does not: it never waits on another
// PE, and a yield per operation would cost fault-free workloads a context
// switch each. Must be called from p's own body with no locks held.
func (p *PE) Yield() {
	s := &p.world.sched
	s.dmu.Lock()
	if s.head == len(s.ready) {
		s.dmu.Unlock()
		return
	}
	s.pushLocked(p)
	s.grantLocked()
	s.dmu.Unlock()
	<-p.wake
}

// acquireSlotFor claims a worker slot for p's body to start running. With
// more PEs than slots the surplus bodies queue behind parked-and-woken PEs
// and start as slots free up.
func (w *World) acquireSlotFor(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	if s.free > 0 {
		s.free--
		s.dmu.Unlock()
		return
	}
	s.pushLocked(p)
	s.dmu.Unlock()
	<-p.wake
}

// releaseSlotFor returns p's worker slot when its body finishes (handing it
// directly to the next ready PE, so unwinds chain through the pool).
func (w *World) releaseSlotFor(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	s.grantLocked()
	s.dmu.Unlock()
}

// block parks the calling PE until a wake-relevant event arrives. Must be
// called with p.mu held; the lock is held again on return. Returns may be
// spurious — callers re-check their predicate in a loop. The park releases
// the worker slot, so a blocked PE costs the pool nothing.
func (p *PE) block() {
	w := p.world
	w.beginBlock()
	p.mu.Unlock()
	w.parkAndWait(p)
	p.mu.Lock()
	w.endBlock()
}

// wakeWatchers wakes every PE holding a registered watch, except skip (the
// fault fan-out used by departures, repair writes and unreachable-link
// marks). It walks the scheduler registry, which is O(watch holders)
// regardless of world size.
func (w *World) wakeWatchers(skip *PE) {
	w.scratchMu.Lock()
	buf := w.sched.snapshot(w.wakeBuf[:0])
	for _, q := range buf {
		if q != skip {
			w.wakeEvent(q)
		}
	}
	w.wakeBuf = buf
	w.scratchMu.Unlock()
}

// --- watchdog (see fault.go for the detection logic) ---

// stallBudget is the wall-clock quiet time after which an all-parked world
// is declared deadlocked. The base covers small worlds; the budget grows
// with image count because legitimate wake chains take host time
// proportional to the world — but sub-linearly: a release is one sequential
// dispatch pass (~ns per PE) plus the woken bodies draining through the
// bounded worker pool (~µs per PE per worker). A linear 25µs/PE term would
// put the 100k budget past five seconds, long enough to mask real deadlocks.
// Under the race detector everything runs roughly an order of magnitude
// slower, so the whole budget scales up — a 100k-image run under -race must
// not false-positive as a deadlock.
func (w *World) stallBudget() time.Duration {
	workers := max(w.workers, 1)
	d := stallRealDelay +
		time.Duration(w.n)*250*time.Nanosecond +
		time.Duration(w.n/workers)*2500*time.Nanosecond
	if raceEnabled {
		d *= 8
	}
	return d
}

// watchdog is the world's hang backstop: one goroutine polling at a coarse
// tick and poisoning the world after stallBudget of continuous all-parked,
// event-free quiet. It exits when the world's PEs are gone or the world is
// already unwinding.
func (w *World) watchdog() {
	const tick = 5 * time.Millisecond
	budget := w.stallBudget()
	var quiet time.Duration
	last := w.eventEpoch.Load()
	for {
		time.Sleep(tick)
		alive := w.aliveN.Load()
		if alive <= 0 || w.failedErr() != nil {
			return
		}
		e := w.eventEpoch.Load()
		if e != last || w.blockedN.Load() < alive {
			last = e
			quiet = 0
			continue
		}
		quiet += tick
		if quiet >= budget {
			w.poisonStall(alive)
			return
		}
	}
}

// defaultWorkers resolves Options.Workers.
func defaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
