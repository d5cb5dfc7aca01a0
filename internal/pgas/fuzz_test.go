package pgas

import (
	"bytes"
	"testing"

	"cafshmem/internal/fabric"
)

// FuzzSegStore drives the one-sided memory substrate — dense Write/Read,
// Touch, and the vectored WriteV/ReadV and WriteRuns/ReadRuns paths, all
// backed by the one paged store of bytes and word timestamps — with a
// fuzz-decoded op program. Every write is mirrored against a flat
// zero-initialised reference array, and every visibility timestamp against a
// per-word max oracle that stamps only writes (and vectored pieces) of at most
// tsTrackMaxBytes, plus every Touch. The program addresses two windows of the
// partition, one at offset 0 and one at 1 MiB (where the CAF runtime's data
// sits above its staging buffer), so the store's page table re-bases downward
// as well as growing upward. Any divergence between the store and the
// references (page-boundary straddles, reads of unmaterialised pages, reads
// past the extent, overlapping pieces resolving in order, a Touch's sparse
// timestamp absorbed by a later dense write) is a substrate bug. The program
// decoder is total: every byte string decodes to a valid op sequence, so the
// fuzzer explores state, not the decoder's error paths.
func FuzzSegStore(f *testing.F) {
	// Seeds: a page-straddling write, a run batch with overlapping runs, reads
	// of never-written ranges, a longer mixed program, a high-window write
	// followed by a low one, a Touch absorbed by a dense write, and stamps on
	// either side of a page edge.
	f.Add([]byte{0, 0xFF, 0xFF, 200, 7})
	f.Add([]byte{2, 0x80, 0x00, 3, 16, 0, 0, 0, 4, 0, 8, 3, 0x80, 0x00, 17})
	f.Add([]byte{1, 0x12, 0x34, 100, 0, 0x00, 0x01, 50})
	f.Add([]byte{
		0, 0x00, 0x01, 40, 9, // write near page 0 start
		0, 0xFF, 0xFF, 255, 1, // straddle the page-1 boundary
		1, 0xFE, 0xFF, 64, // read back across it
		2, 0x00, 0x00, 5, 32, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, // dense run batch
		3, 0x00, 0x00, 33, // gather it back
		4, 0x10, 0x00, // touch
		1, 0x00, 0x00, 200,
	})
	f.Add([]byte{
		0x80, 0x0F, 0xF8, 16, 3, // high window, straddling its first page edge
		0x85, 0x00, 0x40, 20, 5, 200, // strided WriteV up there
		0, 0x20, 0x00, 8, 1, // low window: the table re-bases downward
		0x87, 0x0F, 0xF0, 64, // timestamps survive the re-base
		0x86, 0x00, 0x40, 20, 5, 200, // strided gather
		7, 0x20, 0x00, 8,
	})
	f.Add([]byte{
		4, 0x01, 0x00, // touch: a sparse timestamp on an unstamped page
		7, 0x01, 0x00, 1,
		0, 0x00, 0x00, 8, 2, // a dense write on that page absorbs it
		7, 0x00, 0xF8, 32,
		0x85, 0x00, 0x00, 150, 3, 40, // WriteV with elements past tsTrackMaxBytes
		7, 0x00, 0x00, 255,
	})
	f.Add([]byte{
		0, 0x0F, 0xFC, 8, 4, // stamp the last word of page 0 and the first of page 1
		7, 0x0F, 0xF8, 7, // query the last word of page 0 alone
		7, 0x10, 0x00, 0,
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		// > 3 pages plus a ragged tail per window, so offsets hit page
		// boundaries and the store's extent never covers the whole model.
		const modelLen = 3*int(segPageSize) + 257
		const hiBase = 1 << 20
		var model [2][]byte
		var tsModel [2][]float64
		for win := range model {
			model[win] = make([]byte, modelLen)
			tsModel[win] = make([]float64, modelLen/8+1)
		}
		w, err := NewWorld(fabric.Stampede(), 1)
		if err != nil {
			t.Fatal(err)
		}
		pe := w.pes[0]

		cur := 0
		next := func() (byte, bool) {
			if cur >= len(program) {
				return 0, false
			}
			b := program[cur]
			cur++
			return b, true
		}
		// next16 decodes a bounded non-negative int from two program bytes.
		next16 := func(bound int) (int, bool) {
			hi, ok1 := next()
			lo, ok2 := next()
			if !ok1 || !ok2 {
				return 0, false
			}
			return (int(hi)<<8 | int(lo)) % bound, true
		}
		// stamp mirrors one write of n bytes at off on the timestamp oracle.
		stamp := func(win, off, n int, vis float64) {
			if n == 0 || n > tsTrackMaxBytes {
				return
			}
			for i := off / 8; i <= (off+n-1)/8; i++ {
				tsModel[win][i] = max(tsModel[win][i], vis)
			}
		}
		// nextStrided decodes a WriteV/ReadV shape that fits the window.
		nextStrided := func() (off, es, nelems, stride int, ok bool) {
			off, ok1 := next16(modelLen)
			esRaw, ok2 := next()
			nRaw, ok3 := next()
			sRaw, ok4 := next()
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return 0, 0, 0, 0, false
			}
			es = int(esRaw)*9 + 1 // up to 2296: straddles pages, crosses tsTrackMaxBytes
			nelems = int(nRaw)%8 + 1
			stride = int(sRaw) * es / 64 // overlapping, touching and gapped
			off = min(off, modelLen-es)
			for nelems > 1 && off+(nelems-1)*stride+es > modelLen {
				nelems--
			}
			return off, es, nelems, stride, true
		}

		step := 0
		for {
			op, ok := next()
			if !ok {
				return
			}
			step++
			// Visibility times are nonzero and not monotonic in step, so the
			// oracle's max-merge is exercised, not just its last write.
			vis := float64((step*37)%101 + 1)
			win := int(op >> 7)
			base := int64(win * hiBase)
			m := model[win]
			switch op & 7 {
			case 0: // dense write
				off, ok1 := next16(modelLen)
				n, ok2 := next()
				pat, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				ln := min(int(n), modelLen-off)
				data := make([]byte, ln)
				for i := range data {
					data[i] = pat + byte(i*31)
				}
				w.Write(0, base+int64(off), data, vis)
				copy(m[off:], data)
				stamp(win, off, ln, vis)
			case 1: // dense read, compared against the reference
				off, ok1 := next16(modelLen)
				n, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				ln := min(int(n), modelLen-off)
				got := make([]byte, ln)
				for i := range got {
					got[i] = 0xEE // stale canary the read must overwrite
				}
				w.Read(0, base+int64(off), got)
				if !bytes.Equal(got, m[off:off+ln]) {
					t.Fatalf("step %d: Read(%d, %d) diverges from flat reference", step, base+int64(off), ln)
				}
			case 2, 3: // vectored write / gather: nRuns runs of runBytes
				rbase, ok1 := next16(modelLen / 2)
				nr, ok2 := next()
				rbRaw, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				nRuns := int(nr)%6 + 1
				runBytes := int(rbRaw)%(modelLen/2/nRuns) + 1
				offs := make([]int64, nRuns)
				for i := range offs {
					o, ok := next16(modelLen - rbase - runBytes + 1)
					if !ok {
						return
					}
					offs[i] = int64(o)
				}
				buf := make([]byte, nRuns*runBytes)
				if op&7 == 3 {
					w.ReadRuns(0, base+int64(rbase), offs, runBytes, buf)
					for i, o := range offs {
						want := m[rbase+int(o) : rbase+int(o)+runBytes]
						if !bytes.Equal(buf[i*runBytes:(i+1)*runBytes], want) {
							t.Fatalf("step %d: ReadRuns run %d at %d diverges from flat reference", step, i, base+int64(rbase)+o)
						}
					}
					break
				}
				for i := range buf {
					buf[i] = byte(step*17 + i*13)
				}
				visAt := make([]float64, nRuns)
				for i := range visAt {
					visAt[i] = float64((step*37+i*11)%101 + 1)
				}
				w.WriteRuns(0, base+int64(rbase), offs, runBytes, buf, visAt)
				for i, o := range offs {
					copy(m[rbase+int(o):], buf[i*runBytes:(i+1)*runBytes])
					stamp(win, rbase+int(o), runBytes, visAt[i])
				}
			case 4: // touch: zeroes a materialised byte, never grows the store
				off, ok1 := next16(modelLen)
				if !ok1 {
					return
				}
				w.Touch(0, base+int64(off), vis)
				// The reference mirrors Touch's contract: a zero store at off
				// (an unmaterialised byte already reads as zero either way),
				// and a stamp on its word whatever path the store takes.
				m[off] = 0
				tsModel[win][off/8] = max(tsModel[win][off/8], vis)
			case 5, 6: // strided write / gather, elements in index order
				off, es, nelems, stride, ok := nextStrided()
				if !ok {
					return
				}
				buf := make([]byte, nelems*es)
				if op&7 == 6 {
					w.ReadV(0, base+int64(off), int64(stride), es, buf)
					for k := 0; k < nelems; k++ {
						o := off + k*stride
						if !bytes.Equal(buf[k*es:(k+1)*es], m[o:o+es]) {
							t.Fatalf("step %d: ReadV element %d at %d diverges from flat reference", step, k, base+int64(o))
						}
					}
					break
				}
				for i := range buf {
					buf[i] = byte(step*29 + i*7)
				}
				w.WriteV(0, base+int64(off), int64(stride), es, buf, vis)
				for k := 0; k < nelems; k++ {
					copy(m[off+k*stride:], buf[k*es:(k+1)*es])
					stamp(win, off+k*stride, es, vis)
				}
			case 7: // timestamp query, compared against the per-word max oracle
				off, ok1 := next16(modelLen)
				n, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				ln := min(int(n)+1, modelLen-off)
				want := 0.0
				for i := off / 8; i <= (off+ln-1)/8; i++ {
					want = max(want, tsModel[win][i])
				}
				pe.mu.Lock()
				got := pe.rangeTs(base+int64(off), int64(ln))
				pe.mu.Unlock()
				if got != want {
					t.Fatalf("step %d: rangeTs(%d, %d) = %v, per-word oracle %v", step, base+int64(off), ln, got, want)
				}
			}
		}
	})
}
