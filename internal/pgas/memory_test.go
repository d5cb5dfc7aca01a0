package pgas

import (
	"testing"

	"cafshmem/internal/fabric"
)

// Regression tests for segment growth behaviour (an early version
// reallocated on every length extension, making ascending writes O(n²)).

func TestEnsureLenExtendsWithinCapacityZeroed(t *testing.T) {
	w, err := NewWorld(fabric.Stampede(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// First write allocates capacity; later short extensions must expose
	// zeroed memory between writes.
	w.Write(0, 0, []byte{1}, 0)
	w.Write(0, 100, []byte{2}, 0)
	gap := make([]byte, 99)
	w.Read(0, 1, gap)
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("unwritten byte %d reads %d, want 0", i+1, b)
		}
	}
}

func TestAscendingWritesLinear(t *testing.T) {
	// 64k ascending 8-byte writes should complete quickly; under the old
	// quadratic growth this took seconds.
	w, err := NewWorld(fabric.Stampede(), 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := int64(0); i < 65536; i++ {
		w.Write(0, i*8, buf, 0)
	}
	var out [8]byte
	w.Read(0, 65535*8, out[:])
	if out[7] != 8 {
		t.Fatal("last write lost")
	}
}

func TestInterleavedGrowthAcrossPEs(t *testing.T) {
	w, err := NewWorld(fabric.Stampede(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		for pe := 0; pe < 3; pe++ {
			w.WriteUint64(pe, i*64, uint64(pe*1000)+uint64(i), 0)
		}
	}
	for pe := 0; pe < 3; pe++ {
		for i := int64(0); i < 100; i++ {
			if got := w.ReadUint64(pe, i*64); got != uint64(pe*1000)+uint64(i) {
				t.Fatalf("pe %d word %d corrupted: %d", pe, i, got)
			}
		}
	}
}

// TestWaitUntilAllocs pins the wait path's allocations: a satisfied wait
// costs its watch record and nothing else — the predicate's view aliases the
// page, and a range crossing a page boundary is gathered into the PE's
// reused buffer rather than a fresh one per wait.
func TestWaitUntilAllocs(t *testing.T) {
	w, err := NewWorldOpts(fabric.Stampede(), 1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	one := func(b []byte) bool { return b[0] == 1 }
	err = w.Run(func(p *PE) {
		for _, off := range []int64{64, 4096 - 4} { // one page, then straddling two
			p.StoreLocal(off, []byte{1, 0, 0, 0, 0, 0, 0, 0})
			p.WaitUntil(off, 8, one)
			if a := testing.AllocsPerRun(100, func() { p.WaitUntil(off, 8, one) }); a > 1 {
				t.Errorf("WaitUntil at %d: %v allocs per satisfied wait, want <= 1", off, a)
			}
			if a := testing.AllocsPerRun(100, func() { _, _ = p.WaitUntilStat(off, 8, one, nil) }); a > 1 {
				t.Errorf("WaitUntilStat at %d: %v allocs per satisfied wait, want <= 1", off, a)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
