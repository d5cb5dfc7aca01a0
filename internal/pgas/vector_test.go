package pgas

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"cafshmem/internal/fabric"
)

// The vectored entry points (WriteV/ReadV/WriteRuns/ReadRuns) must move bytes
// and record timestamps exactly as the equivalent sequence of element-wise
// Write/Read calls — that equivalence is what makes routing the strided
// algorithms through them safe for virtual-time bit-identity. These property
// tests drive a vectored world and an element-wise world with the same
// randomised transfers (including overlapping placements and out-of-extent
// reads) and require identical observable state.

// vectorBases are the partition offsets the property tests place transfers
// at: the bottom of the partition, and just below 1 MiB, where the CAF
// runtime's data sits above its staging buffer, so the store's page table
// starts at page 255 and transfers straddle the page-256 edge.
var vectorBases = []int64{0, 1<<20 - 2048}

// vectorElemSize draws an element or run size: mostly flag-to-cache-line
// sized, sometimes up to two pages, so elements straddle page edges and
// cross tsTrackMaxBytes.
func vectorElemSize(rng *rand.Rand, small int) int {
	if rng.Intn(4) == 0 {
		return 1 + rng.Intn(int(2*segPageSize))
	}
	return 1 + rng.Intn(small)
}

func twoWorlds(t *testing.T) (*World, *World) {
	t.Helper()
	wv, err := NewWorld(fabric.Stampede(), 2)
	if err != nil {
		t.Fatal(err)
	}
	we, err := NewWorld(fabric.Stampede(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return wv, we
}

func comparePartitions(t *testing.T, wv, we *World, target int, base, extent int64) {
	t.Helper()
	bv := make([]byte, extent)
	be := make([]byte, extent)
	wv.Read(target, base, bv)
	we.Read(target, base, be)
	if !bytes.Equal(bv, be) {
		t.Fatalf("vectored and element-wise partitions differ over [%d,%d)", base, base+extent)
	}
	// Timestamps must agree word by word, not just content.
	for off := base; off+8 <= base+extent; off += 8 {
		tv := wv.pes[target].rangeTs(off, 8)
		te := we.pes[target].rangeTs(off, 8)
		if tv != te {
			t.Fatalf("word %d: vectored ts %v != element-wise ts %v", off, tv, te)
		}
	}
}

func TestWriteVMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		base := vectorBases[rng.Intn(len(vectorBases))]
		extent := int64(8192)
		for xfer := 0; xfer < 4; xfer++ {
			es := vectorElemSize(rng, 64)
			nelems := rng.Intn(16)
			stride := int64(rng.Intn(3 * es)) // includes overlap (stride < es) and zero
			off := base + int64(rng.Intn(1024))
			src := make([]byte, nelems*es)
			rng.Read(src)
			vis := float64(rng.Intn(1000))
			wv.WriteV(1, off, stride, es, src, vis)
			for k := 0; k < nelems; k++ {
				we.Write(1, off+int64(k)*stride, src[k*es:(k+1)*es], vis)
			}
			extent = max(extent, off-base+int64(nelems)*(stride+int64(es)))
		}
		comparePartitions(t, wv, we, 1, base, extent)
	}
}

func TestWriteRunsMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		runBytes := vectorElemSize(rng, 96)
		nruns := rng.Intn(12)
		zone := vectorBases[rng.Intn(len(vectorBases))]
		base := zone + int64(rng.Intn(256))
		extent := 256 + 2048 + int64(runBytes)
		offs := make([]int64, nruns)
		visAt := make([]float64, nruns)
		for i := range offs {
			// Overlapping runs are deliberate: later runs must win, exactly
			// as sequential Writes would resolve them.
			offs[i] = int64(rng.Intn(2048))
			visAt[i] = float64(rng.Intn(1000))
		}
		src := make([]byte, nruns*runBytes)
		rng.Read(src)
		wv.WriteRuns(1, base, offs, runBytes, src, visAt)
		for i, o := range offs {
			we.Write(1, base+o, src[i*runBytes:(i+1)*runBytes], visAt[i])
		}
		comparePartitions(t, wv, we, 1, zone, extent)
	}
}

func TestReadVMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		base := vectorBases[rng.Intn(len(vectorBases))]
		seed := make([]byte, 2048)
		rng.Read(seed)
		wv.Write(1, base, seed, 1)
		we.Write(1, base, seed, 1)
		es := vectorElemSize(rng, 64)
		nelems := rng.Intn(16)
		stride := int64(rng.Intn(4 * es))
		// Offsets may run past the written extent: both paths must read zeros
		// there without growing the partition.
		off := base + int64(rng.Intn(4096))
		dv := make([]byte, nelems*es)
		de := make([]byte, nelems*es)
		wv.ReadV(1, off, stride, es, dv)
		for k := 0; k < nelems; k++ {
			we.Read(1, off+int64(k)*stride, de[k*es:(k+1)*es])
		}
		if !bytes.Equal(dv, de) {
			t.Fatalf("iter %d: ReadV gathered different bytes than element-wise reads", iter)
		}
	}
}

func TestReadRunsMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		zone := vectorBases[rng.Intn(len(vectorBases))]
		seed := make([]byte, 2048)
		rng.Read(seed)
		wv.Write(1, zone+16, seed, 1)
		we.Write(1, zone+16, seed, 1)
		runBytes := vectorElemSize(rng, 96)
		nruns := rng.Intn(12)
		base := zone + int64(rng.Intn(64))
		offs := make([]int64, nruns)
		for i := range offs {
			offs[i] = int64(rng.Intn(4096))
		}
		dv := make([]byte, nruns*runBytes)
		de := make([]byte, nruns*runBytes)
		wv.ReadRuns(1, base, offs, runBytes, dv)
		for i, o := range offs {
			we.Read(1, base+o, de[i*runBytes:(i+1)*runBytes])
		}
		if !bytes.Equal(dv, de) {
			t.Fatalf("iter %d: ReadRuns gathered different bytes than element-wise reads", iter)
		}
	}
}

// Writes to a failed PE's partition are dropped by Write; the vectored entry
// points must drop them identically.
func TestVectoredWritesToFailedPEAreDropped(t *testing.T) {
	wv, we := twoWorlds(t)
	before := []byte{9, 9, 9, 9}
	wv.Write(1, 0, before, 1)
	we.Write(1, 0, before, 1)
	wv.depart(wv.pes[1], stateFailed)
	we.depart(we.pes[1], stateFailed)
	wv.WriteV(1, 0, 1, 1, []byte{1, 2, 3, 4}, 5)
	wv.WriteRuns(1, 0, []int64{0, 2}, 2, []byte{5, 6, 7, 8}, []float64{5, 5})
	we.Write(1, 0, []byte{1, 2, 3, 4}, 5)
	got := make([]byte, 4)
	wv.Read(1, 0, got)
	if !bytes.Equal(got, before) {
		t.Fatalf("vectored write landed in frozen partition: %v", got)
	}
	we.Read(1, 0, got)
	if !bytes.Equal(got, before) {
		t.Fatalf("element-wise write landed in frozen partition: %v", got)
	}
}

// The watch-aware wakeup optimisation skips the broadcast (and event-epoch
// bump) when no watch is registered. A WaitUntil that races writer traffic
// must still never lose its wakeup: the waiter registers its watch before
// re-evaluating the predicate, so a write either sees the watch (and
// broadcasts) or happened before registration (and the predicate sees its
// bytes). Run with -race; a lost wakeup poisons the world via the hang
// watchdog and fails the test.
func TestWatchAwareWakeupNeverLost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		delayW := time.Duration(rng.Intn(200)) * time.Microsecond
		err := Run(fabric.Stampede(), 2, func(p *PE) {
			if p.ID == 0 {
				// Unwatched traffic first: these writes must not wake or
				// deadlock anything.
				for i := 0; i < 8; i++ {
					p.world.Write(1, 128+int64(i)*8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, float64(i))
				}
				time.Sleep(delayW)
				p.world.WriteUint64(1, 0, 1, 42)
			} else {
				ts := p.WaitUntil64(0, func(v uint64) bool { return v == 1 })
				if ts != 42 {
					panic("waiter adopted wrong timestamp")
				}
			}
		})
		if err != nil {
			t.Fatalf("round %d (writer delay %v): %v", round, delayW, err)
		}
	}
}

// watching reports whether p holds a registered watch.
func watching(p *PE) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.watches) > 0
}

// A vectored write must wake a watcher. A waiter parks as a task, so a write
// that skips the targeted wake leaves it asleep. PE 1 waits on a word; once
// its watch is registered PE 0 fills the word with WriteV or WriteRuns and
// then waits for PE 1's reply. A lost wakeup ends in the hang watchdog.
func TestVectoredWriteWakesWatcher(t *testing.T) {
	one := binary.NativeEndian.AppendUint64(nil, 1)
	writes := map[string]func(w *World){
		"WriteV":    func(w *World) { w.WriteV(1, 64, 8, 8, one, 7) },
		"WriteRuns": func(w *World) { w.WriteRuns(1, 64, []int64{0}, 8, one, []float64{7}) },
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 2}} {
		for name, write := range writes {
			w, err := NewWorldOpts(fabric.Stampede(), 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				if p.ID == 1 {
					ts := p.WaitUntil64(64, func(v uint64) bool { return v == 1 })
					w.WriteUint64(0, 0, 1, ts+1)
					return
				}
				for !watching(w.pes[1]) {
					p.Yield()
				}
				write(w)
				if ts := p.WaitUntil64(0, func(v uint64) bool { return v == 1 }); ts != 8 {
					panic("reply carries the wrong timestamp")
				}
			})
			if err != nil {
				t.Errorf("workers=%d, %s: %v", opts.Workers, name, err)
			}
		}
	}
}
