package pgas

import "fmt"

// segStore is the paged backing store for one PE's partition: its bytes and
// the visibility timestamps of its words, behind one page table. Partitions
// are logically contiguous, zero-initialised byte ranges up to
// MaxSegmentBytes, but real programs write them sparsely: the CAF runtime
// places a large, mostly-idle staging buffer below the densely-used coarray
// data, and the symmetric-heap Malloc protocol establishes regions far larger
// than what is ever stored. The store materialises only pages that have
// actually been written, and its table spans only the window between the
// lowest and highest written page, so data sitting above the idle staging
// buffer pays nothing for the pages below it. A missing page reads as zeros,
// which is exactly what the unwritten memory is.
//
// Each page lazily carries the latest virtual time at which each of its
// 8-byte words became visible. Stamping is unconditional for small writes
// even when no waiter is registered: WaitUntil recovers a write's causal
// timestamp through it precisely when the write raced ahead of the watch
// registration, so gating it on waiter presence would make virtual-time
// results depend on host scheduling. See DESIGN.md "Host-performance model".
//
// All methods must be called with the owning PE's mu held.
type segStore struct {
	base   int64     // page number of pages[0]
	pages  []segPage // pages[i] is page base+i
	length int64     // logical extent: the high-water mark of ensure()
	// sparse holds isolated word timestamps, keyed by word index, on pages
	// with no timestamp array: the symmetric-heap allocator's region-backing
	// Touches, which land one word at the end of each allocation and would
	// otherwise each materialise a page (and widen the table) during world
	// construction — at 10k PEs those pages dominated setup cost and memory.
	// Entries migrate into a page's timestamps when a dense write
	// materialises them, so the flag/lock-word hot path stays map-free.
	sparse map[int64]float64
}

// segPage is one page of bytes and, once a small write has landed on it, the
// timestamps of its words. Either may be nil: a missing data page reads as
// zeros, a missing timestamp array as "never stamped".
type segPage struct {
	data *[segPageSize]byte
	ts   *[segPageWords]float64
}

const (
	segPageShift = 12 // 4 KiB pages
	segPageSize  = int64(1) << segPageShift
	segPageMask  = segPageSize - 1
	segPageWords = segPageSize / 8 // one timestamp per 8-byte word
)

// segZeroPage backs reads of unmaterialised pages. Never written.
var segZeroPage [segPageSize]byte

// ensure extends the logical extent to cover length bytes. No page memory is
// materialised: the new range reads as zero until something is written.
func (s *segStore) ensure(peID int, length int64) {
	if length > MaxSegmentBytes {
		panic(fmt.Sprintf("pgas: PE %d segment would exceed %d bytes (asked %d)", peID, MaxSegmentBytes, length))
	}
	if length > s.length {
		s.length = length
	}
}

// at returns page pn's table entry, or nil when pn lies outside the window.
func (s *segStore) at(pn int64) *segPage {
	if i := pn - s.base; i >= 0 && i < int64(len(s.pages)) {
		return &s.pages[i]
	}
	return nil
}

// slot returns page pn's table entry, widening the window geometrically
// toward pn when it lies outside. The pointer is valid until the next slot.
func (s *segStore) slot(pn int64) *segPage {
	if sp := s.at(pn); sp != nil {
		return sp
	}
	if len(s.pages) == 0 {
		s.base = pn
	}
	lo, hi := min(pn, s.base), max(pn+1, s.base+int64(len(s.pages)))
	n := max(hi-lo, 2*int64(len(s.pages)))
	if pn < s.base {
		lo = max(0, hi-n)
	}
	np := make([]segPage, n)
	copy(np[s.base-lo:], s.pages)
	s.base, s.pages = lo, np
	return &s.pages[pn-lo]
}

// page returns page pn's table entry with its bytes materialised, and its
// timestamps too when ts is set. The pointer is valid until the next slot.
func (s *segStore) page(pn int64, ts bool) *segPage {
	sp := s.slot(pn)
	if sp.data == nil {
		sp.data = new([segPageSize]byte)
	}
	if ts && sp.ts == nil {
		sp.ts = s.newTs(pn)
	}
	return sp
}

// writeV copies len(src)/es elements of es bytes from src to off, off+stride,
// … in index order, materialising pages as needed, and stamps the words each
// element covers with ts when the element is at most tsTrackMaxBytes long.
// Consecutive elements on one page share its lookup. A single write is
// writeV with one element. The caller has already called ensure.
func (s *segStore) writeV(off, stride int64, es int, src []byte, ts float64) {
	stamp := es <= tsTrackMaxBytes
	cur := int64(-1)
	var data *[segPageSize]byte
	var tsw *[segPageWords]float64
	for k := 0; k < len(src); k += es {
		el, o := src[k:k+es], off
		off += stride
		for len(el) > 0 {
			if pn := o >> segPageShift; pn != cur {
				sp := s.at(pn)
				if sp == nil || sp.data == nil || stamp && sp.ts == nil {
					sp = s.page(pn, stamp)
				}
				cur, data, tsw = pn, sp.data, sp.ts
			}
			i := o & segPageMask
			n := copy(data[i:], el)
			if stamp {
				for w := i >> 3; w <= (i+int64(n)-1)>>3; w++ {
					if ts > tsw[w] {
						tsw[w] = ts
					}
				}
			}
			el = el[n:]
			o += int64(n)
		}
	}
}

// write copies data into the store at off and stamps it (see writeV).
func (s *segStore) write(off int64, data []byte, ts float64) {
	s.writeV(off, 0, len(data), data, ts)
}

// newTs allocates page pn's timestamp array, migrating the sparse overlay's
// records for that page into it, so a word's timestamp lives in one place.
func (s *segStore) newTs(pn int64) *[segPageWords]float64 {
	tsw := new([segPageWords]float64)
	for w, ts := range s.sparse {
		if w/segPageWords == pn {
			if i := w % segPageWords; ts > tsw[i] {
				tsw[i] = ts
			}
			delete(s.sparse, w)
		}
	}
	return tsw
}

// touch is a one-byte store of zero at off with visibility time ts that
// materialises nothing: the byte is cleared only on a materialised page (an
// unmaterialised one already reads as zero), and the word's timestamp goes
// to its page's timestamps if the page has them and to the sparse overlay
// otherwise. Only rare records (heap-backing Touches) should use this: a
// sparse word stays in the overlay until a dense write absorbs it, and the
// overlay costs one pass per rangeTs.
func (s *segStore) touch(off int64, ts float64) {
	sp, w := s.at(off>>segPageShift), off>>3
	if sp != nil && sp.data != nil {
		sp.data[off&segPageMask] = 0
	}
	if sp != nil && sp.ts != nil {
		if i := w % segPageWords; ts > sp.ts[i] {
			sp.ts[i] = ts
		}
		return
	}
	if s.sparse == nil {
		s.sparse = map[int64]float64{}
	}
	if old, ok := s.sparse[w]; !ok || ts > old {
		s.sparse[w] = ts
	}
}

// rangeTs returns the latest timestamp stamped on a word overlapping the
// byte range [off, off+n), or 0 when none was.
func (s *segStore) rangeTs(off, n int64) float64 {
	ts := 0.0
	first, last := off>>3, (off+n-1)>>3
	// One pass over the (small) overlay, not one lookup per word: the
	// overlay holds at most one entry per heap allocation.
	for w, wts := range s.sparse {
		if w >= first && w <= last && wts > ts {
			ts = wts
		}
	}
	for pn := first / segPageWords; pn <= last/segPageWords; pn++ {
		sp := s.at(pn)
		if sp == nil || sp.ts == nil {
			continue
		}
		lo, hi := max(first-pn*segPageWords, 0), min(last-pn*segPageWords, segPageWords-1)
		for _, wts := range sp.ts[lo : hi+1] {
			if wts > ts {
				ts = wts
			}
		}
	}
	return ts
}

// readV gathers len(dst)/es elements of es bytes from off, off+stride, …
// into dst densely. Bytes beyond the logical extent, and bytes on
// unmaterialised pages, read as zero. Consecutive elements on one page share
// its lookup.
func (s *segStore) readV(off, stride int64, es int, dst []byte) {
	cur := int64(-1)
	data := &segZeroPage
	for k := 0; k < len(dst); k += es {
		el, o := dst[k:k+es], off
		off += stride
		in := int(min(max(s.length-o, 0), int64(es)))
		clear(el[in:])
		for el = el[:in]; len(el) > 0; {
			if pn := o >> segPageShift; pn != cur {
				cur, data = pn, &segZeroPage
				if sp := s.at(pn); sp != nil && sp.data != nil {
					data = sp.data
				}
			}
			n := copy(el, data[o&segPageMask:])
			el = el[n:]
			o += int64(n)
		}
	}
}

// readAt copies bytes [off, off+len(dst)) into dst (see readV) and returns
// the number of them that lay within the extent, mirroring the prefix-copy
// semantics of reading from a flat slice.
func (s *segStore) readAt(off int64, dst []byte) int {
	s.readV(off, 0, len(dst), dst)
	return int(min(max(s.length-off, 0), int64(len(dst))))
}

// view returns a read-only window over [off, off+n). When the range lies
// within a single page the page memory is aliased directly (zero-copy — this
// is the WaitUntil spin path, re-evaluated on every wakeup); a range crossing
// a page boundary is gathered into *scratch, which is grown only then, so a
// wait on a single-page range allocates nothing. Callers must not write
// through the result and must not retain it past the next store.
func (s *segStore) view(off, n int64, scratch *[]byte) []byte {
	if (off >> segPageShift) == ((off + n - 1) >> segPageShift) {
		data := &segZeroPage
		if sp := s.at(off >> segPageShift); sp != nil && sp.data != nil {
			data = sp.data
		}
		return data[off&segPageMask : (off&segPageMask)+n]
	}
	if int64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	s.readAt(off, buf)
	return buf
}
