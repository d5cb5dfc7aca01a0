package pgas

import (
	"bytes"
	"testing"

	"cafshmem/internal/fabric"
)

// FuzzSegStore drives the one-sided memory substrate — dense Write/Read,
// Touch, and the vectored WriteRuns/ReadRuns paths, all backed by the 4 KiB
// paged segment store — with a fuzz-decoded op program, mirroring every write
// against a flat zero-initialised reference array. Any divergence between a
// paged read and the dense reference (page-boundary straddles, reads of
// unmaterialised pages, reads past the extent, overlapping runs resolving in
// slice order) is a substrate bug. The program decoder is total: every byte
// string decodes to a valid op sequence, so the fuzzer explores state, not the
// decoder's error paths.
func FuzzSegStore(f *testing.F) {
	// Seeds: a page-straddling write, a run batch with overlapping runs, reads
	// of never-written ranges, and a longer mixed program.
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
	f.Fuzz(func(t *testing.T, program []byte) {
		// > 3 pages plus a ragged tail, so offsets hit page boundaries and the
		// store's extent never covers the whole model.
		const modelLen = 3*int(segPageSize) + 257
		model := make([]byte, modelLen)
		w, err := NewWorld(fabric.Stampede(), 1)
		if err != nil {
			t.Fatal(err)
		}

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

		step := 0
		for {
			op, ok := next()
			if !ok {
				return
			}
			step++
			switch op % 5 {
			case 0: // dense write
				off, ok1 := next16(modelLen)
				n, ok2 := next()
				pat, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				ln := int(n)
				if off+ln > modelLen {
					ln = modelLen - off
				}
				data := make([]byte, ln)
				for i := range data {
					data[i] = pat + byte(i*31)
				}
				w.Write(0, int64(off), data, 0)
				copy(model[off:], data)
			case 1: // dense read, compared against the reference
				off, ok1 := next16(modelLen)
				n, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				ln := int(n)
				if off+ln > modelLen {
					ln = modelLen - off
				}
				got := make([]byte, ln)
				for i := range got {
					got[i] = 0xEE // stale canary the read must overwrite
				}
				w.Read(0, int64(off), got)
				if !bytes.Equal(got, model[off:off+ln]) {
					t.Fatalf("step %d: Read(%d, %d) diverges from flat reference", step, off, ln)
				}
			case 2: // vectored write: nRuns runs of runBytes, slice order wins
				base, ok1 := next16(modelLen / 2)
				nr, ok2 := next()
				rbRaw, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				nRuns := int(nr)%6 + 1
				runBytes := int(rbRaw)%(modelLen/2/nRuns) + 1
				offs := make([]int64, nRuns)
				for i := range offs {
					o, ok := next16(modelLen - base - runBytes + 1)
					if !ok {
						return
					}
					offs[i] = int64(o)
				}
				src := make([]byte, nRuns*runBytes)
				for i := range src {
					src[i] = byte(step*17 + i*13)
				}
				visAt := make([]float64, nRuns)
				w.WriteRuns(0, int64(base), offs, runBytes, src, visAt)
				for i, o := range offs {
					copy(model[base+int(o):], src[i*runBytes:(i+1)*runBytes])
				}
			case 3: // vectored gather, compared against the reference
				base, ok1 := next16(modelLen / 2)
				nr, ok2 := next()
				rbRaw, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				nRuns := int(nr)%6 + 1
				runBytes := int(rbRaw)%(modelLen/2/nRuns) + 1
				offs := make([]int64, nRuns)
				for i := range offs {
					o, ok := next16(modelLen - base - runBytes + 1)
					if !ok {
						return
					}
					offs[i] = int64(o)
				}
				dst := make([]byte, nRuns*runBytes)
				w.ReadRuns(0, int64(base), offs, runBytes, dst)
				for i, o := range offs {
					want := model[base+int(o) : base+int(o)+runBytes]
					if !bytes.Equal(dst[i*runBytes:(i+1)*runBytes], want) {
						t.Fatalf("step %d: ReadRuns run %d at %d diverges from flat reference", step, i, base+int(o))
					}
				}
			case 4: // touch: zeroes a materialised byte, never grows the store
				off, ok1 := next16(modelLen)
				if !ok1 {
					return
				}
				w.Touch(0, int64(off), 0)
				// The reference mirrors Touch's contract: a zero store at off
				// (an unmaterialised byte already reads as zero either way).
				model[off] = 0
			}
		}
	})
}
