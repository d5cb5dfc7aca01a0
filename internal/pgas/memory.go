package pgas

import (
	"encoding/binary"
	"fmt"
)

// ensureLen extends the partition's logical extent to cover length bytes.
// Must be called with p.mu held. No memory is materialised — the paged
// backing store (segstore.go) allocates pages on first write, so worlds with
// thousands of PEs do not reserve memory they never store to.
func (p *PE) ensureLen(length int64) {
	p.seg.ensure(p.ID, length)
}

// Write copies data into the target PE's partition at off, one-sided: the
// target goroutine does not participate. visibleAt is the virtual time at
// which the data becomes observable at the target; watches overlapping the
// range adopt it, and blocked waiters are woken.
func (w *World) Write(target int, off int64, data []byte, visibleAt float64) {
	if len(data) == 0 {
		return
	}
	if w.stateOf(target) == stateFailed {
		return // a failed PE's partition is frozen: one-sided writes are dropped
	}
	p := w.pes[target]
	p.mu.Lock()
	p.ensureLen(off + int64(len(data)))
	p.noteWrite(off, data, visibleAt)
	p.mu.Unlock()
}

// Touch performs the write-visibility bookkeeping of a one-byte store of
// zero at (target, off) without materialising partition memory that has
// never been written. Symmetric-heap allocators use it to "back" a freshly
// allocated region: the word timestamp, watch scan, and waiter wakeups
// behave exactly as for Write([]byte{0}), but a partition that has not
// grown to cover off stays small — unwritten memory already reads as zero.
// If the byte is materialised the store happens for real, because a re-used
// heap region may hold stale nonzero data.
func (w *World) Touch(target int, off int64, visibleAt float64) {
	if off < 0 || off >= MaxSegmentBytes {
		panic(fmt.Sprintf("pgas: touch at offset %d out of range", off))
	}
	if w.stateOf(target) == stateFailed {
		return // as for Write: a failed PE's partition is frozen
	}
	p := w.pes[target]
	p.mu.Lock()
	p.noteTouch(off, visibleAt)
	p.mu.Unlock()
}

// Read copies len(dst) bytes out of the target PE's partition at off. Bytes
// beyond the partition's current extent read as zero *without growing it*:
// partitions only grow on writes, so read-mostly workloads at high PE counts
// do not inflate memory for ranges that were never touched.
func (w *World) Read(target int, off int64, dst []byte) {
	if len(dst) == 0 {
		return
	}
	if off < 0 || off+int64(len(dst)) > MaxSegmentBytes {
		panic(fmt.Sprintf("pgas: read of %d bytes at offset %d out of range", len(dst), off))
	}
	p := w.pes[target]
	p.mu.Lock()
	p.seg.readAt(off, dst)
	p.mu.Unlock()
}

// WriteUint64 stores an 8-byte host-order word one-sided.
func (w *World) WriteUint64(target int, off int64, v uint64, visibleAt float64) {
	var b [8]byte
	binary.NativeEndian.PutUint64(b[:], v)
	w.Write(target, off, b[:], visibleAt)
}

// ReadUint64 loads an 8-byte host-order word one-sided.
func (w *World) ReadUint64(target int, off int64) uint64 {
	var b [8]byte
	w.Read(target, off, b[:])
	return binary.NativeEndian.Uint64(b[:])
}

// AtomicOp names a read-modify-write operation on a 64-bit word.
type AtomicOp int

const (
	OpAdd AtomicOp = iota
	OpAnd
	OpOr
	OpXor
	OpSwap
)

// RMW64 atomically applies op to the 64-bit host-order word at (target,
// off) and returns the previous value. The update is visible at visibleAt.
func (w *World) RMW64(target int, off int64, op AtomicOp, operand uint64, visibleAt float64) uint64 {
	p := w.pes[target]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureLen(off + 8)
	var b [8]byte
	p.seg.readAt(off, b[:])
	old := binary.NativeEndian.Uint64(b[:])
	if w.stateOf(target) == stateFailed {
		return old // frozen partition: observe, never mutate
	}
	var nw uint64
	switch op {
	case OpAdd:
		nw = old + operand
	case OpAnd:
		nw = old & operand
	case OpOr:
		nw = old | operand
	case OpXor:
		nw = old ^ operand
	case OpSwap:
		nw = operand
	default:
		panic(fmt.Sprintf("pgas: unknown atomic op %d", op))
	}
	binary.NativeEndian.PutUint64(b[:], nw)
	p.noteWrite(off, b[:], visibleAt)
	return old
}

// CompareSwap64 atomically replaces the word at (target, off) with desired if
// it equals expected, returning the previous value (OpenSHMEM cswap
// semantics: the caller checks old == expected for success).
func (w *World) CompareSwap64(target int, off int64, expected, desired uint64, visibleAt float64) uint64 {
	p := w.pes[target]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureLen(off + 8)
	var b [8]byte
	p.seg.readAt(off, b[:])
	old := binary.NativeEndian.Uint64(b[:])
	if old == expected && w.stateOf(target) != stateFailed {
		binary.NativeEndian.PutUint64(b[:], desired)
		p.noteWrite(off, b[:], visibleAt)
	}
	return old
}

// tsTrackMaxBytes bounds which writes stamp per-word timestamps: flag and
// control-word traffic is always small; bulk payloads are never waited on.
const tsTrackMaxBytes = 1024

// noteWrite stores data at off, stamping its words with the write's
// visibility time in the same page pass, raises overlapping watches to it,
// and wakes the waiters. Must be called with p.mu held.
//
// Watch-awareness: the scan, the event-epoch bump, and the wakeup are all
// skipped when no watch is registered — and since a waiter's predicate reads
// only its own watched range, the wakeup is further skipped when no
// registered watch overlaps the written range (a write that cannot change
// any waiter's predicate). That is sound because the only sleepers on the
// partition are WaitUntil/WaitUntilStat, which always hold a registered
// watch over exactly the bytes their predicate reads, and a waiter that
// registers later re-evaluates its predicate against the already-written
// bytes before blocking — no wakeup can be lost. World-level conditions a
// WaitUntilStat onEvent hook checks (departures, repair writes, dead links)
// have their own fan-outs and never depend on unrelated-write wakeups.
// Timestamp stamping stays unconditional (see segStore): it is what keeps
// wait timestamps independent of whether the write raced ahead of the watch
// registration.
func (p *PE) noteWrite(off int64, data []byte, visibleAt float64) {
	p.seg.write(off, data, visibleAt)
	if p.raiseWatches(off, int64(len(data)), visibleAt) {
		p.world.bumpEvent()
		p.world.wakeEvent(p)
	}
}

// noteTouch is noteWrite for the symmetric-heap Touch: the same watch scan
// and wakeup, but the store materialises nothing and the timestamp goes
// through its sparse overlay, so backing a region at a high never-written
// offset does not materialise a dense timestamp page (at 10k PEs the
// per-malloc Touch pages dominated world-construction time and memory).
// Must be called with p.mu held.
func (p *PE) noteTouch(off int64, visibleAt float64) {
	p.seg.touch(off, visibleAt)
	if p.raiseWatches(off, 1, visibleAt) {
		p.world.bumpEvent()
		p.world.wakeEvent(p)
	}
}

// raiseWatches raises the watches overlapping [off, off+n) to visibleAt and
// reports whether any did. Must be called with p.mu held.
func (p *PE) raiseWatches(off, n int64, visibleAt float64) bool {
	if len(p.watches) == 0 {
		return false
	}
	matched := false
	for wt := range p.watches {
		if off < wt.off+wt.n && wt.off < off+n {
			if visibleAt > wt.ts {
				wt.ts = visibleAt
			}
			matched = true
		}
	}
	return matched
}

// rangeTs returns the latest recorded visibility timestamp overlapping
// [off, off+n). Must be called with p.mu held.
func (p *PE) rangeTs(off, n int64) float64 { return p.seg.rangeTs(off, n) }

// WaitUntil blocks the calling PE until pred holds over the n bytes at off of
// its *own* partition, then returns the virtual time at which the last write
// to the range became visible (0 if the range was never written). The caller
// is responsible for merging the returned timestamp into its clock; the
// per-word timestamps make the result independent of whether the
// satisfying write raced ahead of the watch registration.
//
// This is the substrate for shmem_wait_until and for the local spin of the
// MCS lock (paper §IV-D: "It will then locally spin on its qnode's locked
// field").
func (p *PE) WaitUntil(off, n int64, pred func([]byte) bool) float64 {
	wt := &watch{off: off, n: n}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureLen(off + n)
	p.addWatch(wt)
	defer p.removeWatch(wt)
	for {
		p.world.checkFailed()
		if pred(p.seg.view(off, n, &p.viewBuf)) {
			ts := p.rangeTs(off, n)
			if wt.ts > ts {
				ts = wt.ts
			}
			return ts
		}
		p.block()
	}
}

// WaitUntil64 blocks until cmp(word) holds for the local 64-bit word at off.
func (p *PE) WaitUntil64(off int64, cmp func(uint64) bool) float64 {
	return p.WaitUntil(off, 8, func(b []byte) bool {
		return cmp(binary.NativeEndian.Uint64(b))
	})
}

// ReadLocal copies n bytes at off of the PE's own partition into dst — the
// allocation-free form of LocalBytes for callers that bring their own buffer.
func (p *PE) ReadLocal(off int64, dst []byte) {
	p.world.Read(p.ID, off, dst)
}

// LocalBytes returns a snapshot copy of n bytes at off of the PE's own
// partition. A copy (not an alias) is returned because partition pages may be
// written concurrently by remote PEs.
func (p *PE) LocalBytes(off, n int64) []byte {
	dst := make([]byte, n)
	p.world.Read(p.ID, off, dst)
	return dst
}

// StoreLocal writes into the PE's own partition with immediate visibility
// (used for initialising local coarray data; costs are the caller's concern).
func (p *PE) StoreLocal(off int64, data []byte) {
	p.world.Write(p.ID, off, data, p.Clock.Now())
}
