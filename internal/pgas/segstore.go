package pgas

import "fmt"

// segStore is the paged backing store for one PE's partition. Partitions are
// logically contiguous, zero-initialised byte ranges up to MaxSegmentBytes,
// but real programs write them sparsely: the CAF runtime places a large,
// mostly-idle staging buffer below the densely-used coarray data, and the
// symmetric-heap Malloc protocol establishes regions far larger than what is
// ever stored. A flat []byte would materialise every zero byte below the
// highest written offset (hundreds of MB per world at 256 PEs); the paged
// store materialises only pages that have actually been written. A nil page
// reads as zeros, which is exactly what the unwritten memory is.
//
// All methods must be called with the owning PE's mu held.
type segStore struct {
	pages  [][]byte
	length int64 // logical extent: the high-water mark of ensure()
}

const (
	segPageShift = 12 // 4 KiB pages
	segPageSize  = int64(1) << segPageShift
	segPageMask  = segPageSize - 1
)

// segZeroPage is the shared read-only view handed out for unmaterialised
// pages. Callers must never write through slices returned by view.
var segZeroPage = make([]byte, segPageSize)

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

// page returns the materialised page containing byte w, allocating it (and
// growing the page table geometrically) on first write.
func (s *segStore) page(w int64) []byte {
	pn := w >> segPageShift
	if pn >= int64(len(s.pages)) {
		newLen := int64(cap(s.pages))
		if newLen < 8 {
			newLen = 8
		}
		for newLen <= pn {
			newLen *= 2
		}
		np := make([][]byte, newLen)
		copy(np, s.pages)
		s.pages = np[:newLen]
	}
	if s.pages[pn] == nil {
		s.pages[pn] = make([]byte, segPageSize)
	}
	return s.pages[pn]
}

// writeAt copies data into the store at off, materialising pages as needed.
// The caller has already called ensure for the range.
func (s *segStore) writeAt(off int64, data []byte) {
	for len(data) > 0 {
		pg := s.page(off)
		n := copy(pg[off&segPageMask:], data)
		data = data[n:]
		off += int64(n)
	}
}

// readAt copies bytes [off, off+len(dst)) into dst. Bytes beyond the logical
// extent — and bytes on unmaterialised pages — read as zero. It returns the
// number of bytes that lay within the extent, mirroring the prefix-copy
// semantics of reading from a flat slice.
func (s *segStore) readAt(off int64, dst []byte) int {
	if off >= s.length {
		clear(dst)
		return 0
	}
	in := len(dst)
	if off+int64(in) > s.length {
		in = int(s.length - off)
		clear(dst[in:])
	}
	got := dst[:in]
	for len(got) > 0 {
		var pg []byte
		if pn := off >> segPageShift; pn < int64(len(s.pages)) && s.pages[pn] != nil {
			pg = s.pages[pn]
		} else {
			pg = segZeroPage
		}
		n := copy(got, pg[off&segPageMask:])
		got = got[n:]
		off += int64(n)
	}
	return in
}

// zeroByte stores a zero at off if the byte is materialised. An
// unmaterialised byte is already (logically) zero, so no page is allocated —
// this is what makes the Malloc backing touch free for untouched regions.
func (s *segStore) zeroByte(off int64) {
	if pn := off >> segPageShift; pn < int64(len(s.pages)) && s.pages[pn] != nil {
		s.pages[pn][off&segPageMask] = 0
	}
}

// view returns a read-only window over [off, off+n). When the range lies
// within a single page the page memory is aliased directly (zero-copy — this
// is the WaitUntil spin path, re-evaluated on every wakeup); a range crossing
// a page boundary is gathered into scratch. Callers must not write through
// the result and must not retain it past the next store.
func (s *segStore) view(off, n int64, scratch []byte) []byte {
	if (off>>segPageShift) == ((off+n-1)>>segPageShift) {
		var pg []byte
		if pn := off >> segPageShift; pn < int64(len(s.pages)) && s.pages[pn] != nil {
			pg = s.pages[pn]
		} else {
			pg = segZeroPage
		}
		return pg[off&segPageMask : (off&segPageMask)+n]
	}
	s.readAt(off, scratch[:n])
	return scratch[:n]
}
