package pgas

import (
	"bytes"
	"math/rand"
	"testing"
)

// The paged store must be indistinguishable from a flat zero-initialised
// byte array: randomised writes and reads (many straddling page boundaries)
// are mirrored against a plain []byte model.
func TestSegStoreMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s segStore
	const modelLen = 3*int(segPageSize) + 123 // > 3 pages
	model := make([]byte, modelLen)
	s.ensure(0, int64(modelLen))
	for iter := 0; iter < 2000; iter++ {
		off := int64(rng.Intn(modelLen))
		n := rng.Intn(300)
		if off+int64(n) > int64(modelLen) {
			n = modelLen - int(off)
		}
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			s.write(off, data, 0)
			copy(model[off:], data)
		} else {
			got := make([]byte, n)
			s.readAt(off, got)
			if !bytes.Equal(got, model[off:off+int64(n)]) {
				t.Fatalf("iter %d: readAt(%d, %d) mismatch", iter, off, n)
			}
		}
	}
}

func TestSegStoreReadsBeyondExtentAreZero(t *testing.T) {
	var s segStore
	s.ensure(0, 10)
	s.write(0, []byte{1, 2, 3}, 0)
	got := make([]byte, 16)
	for i := range got {
		got[i] = 0xFF
	}
	if n := s.readAt(0, got); n != 10 {
		t.Fatalf("readAt within extent = %d, want 10", n)
	}
	want := []byte{1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("readAt = %v, want %v", got, want)
	}
	if n := s.readAt(100, got); n != 0 {
		t.Fatalf("readAt past extent = %d, want 0", n)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("readAt past extent must zero the destination")
		}
	}
}

func TestSegStoreViewCrossingPages(t *testing.T) {
	var s segStore
	s.ensure(0, 2*segPageSize)
	// Straddle the first page boundary.
	off := segPageSize - 4
	s.write(off, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0)
	var scratch []byte
	// Single-page view of an unmaterialised page reads zeros, without
	// needing the gather buffer.
	v := s.view(3*segPageSize+8, 8, &scratch)
	for _, b := range v {
		if b != 0 {
			t.Fatal("view of unmaterialised page must be zero")
		}
	}
	if scratch != nil {
		t.Fatal("single-page view allocated a gather buffer")
	}
	v = s.view(off, 8, &scratch)
	if !bytes.Equal(v, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("cross-page view = %v", v)
	}
}

// touch must not materialise a page (the Malloc backing touch relies on
// this) but must clear a real byte when the page exists.
func TestSegStoreZeroByte(t *testing.T) {
	var s segStore
	s.ensure(0, segPageSize)
	s.touch(100, 1)
	for _, pg := range s.pages {
		if pg.data != nil || pg.ts != nil {
			t.Fatal("touch materialised a page")
		}
	}
	s.write(100, []byte{0xAA}, 2)
	s.touch(100, 1)
	got := make([]byte, 1)
	s.readAt(100, got)
	if got[0] != 0 {
		t.Fatalf("touch left %#x", got[0])
	}
}

// The page table spans only the written window: a partition whose data sits
// above the idle 1 MiB staging buffer (pages 256 and 257) holds a few table
// entries, not one per page from 0, and a later write below that window
// re-bases the table downward without losing what it holds.
func TestSegStoreTableSpansWrittenWindow(t *testing.T) {
	var s segStore
	s.ensure(0, 258*segPageSize)
	s.write(256*segPageSize+8, []byte{1}, 1)
	s.write(257*segPageSize+8, []byte{2}, 2)
	if len(s.pages) > 4 {
		t.Fatalf("page table holds %d entries after writing pages 256 and 257", len(s.pages))
	}
	s.write(3*segPageSize+8, []byte{3}, 3)
	for i, pn := range []int64{256, 257, 3} {
		got := make([]byte, 1)
		s.readAt(pn*segPageSize+8, got)
		if got[0] != byte(i+1) {
			t.Fatalf("page %d holds %d, want %d", pn, got[0], i+1)
		}
		if ts := s.rangeTs(pn*segPageSize+8, 1); ts != float64(i+1) {
			t.Fatalf("page %d stamped %v, want %d", pn, ts, i+1)
		}
	}
}
