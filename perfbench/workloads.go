package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
)

// outcome is what one job reports back to the benchmark loop.
type outcome struct {
	ops   int64     // simulated communication ops: caf.Stats.Ops summed over images
	vms   float64   // modelled (virtual) time of the job in ms
	stats caf.Stats // summed over images; zero for himeno, which reports CommOps only
}

// workload is one named benchmark configuration. Every workload keeps the
// library defaults for the execution engine, its worker count and the
// barrier's shard layout.
type workload interface {
	// job runs one timed job and checks its output against the pinned or
	// reference values; a non-nil error marks the job failed. sp is nil when
	// the run is untraced.
	job(sp *spans) (outcome, error)
	// setup runs the set-up-only job: a world at the workload's image count
	// and options whose body allocates the workload's coarrays and calls
	// SyncAll once.
	setup() error
	// images is the world size, which sizes the span buffers.
	images() int
}

// spec is what the benchmark reports for a workload beyond the common metrics.
type spec struct {
	name string
	// tail is the job_s_tail percentile: the highest one with at least ten
	// jobs beyond it at the run length BENCHMARK.json sets.
	tail float64
	// spans are the spans the traced run records around the benchmark's calls.
	spans []spanKind
	// stats adds the per-field caf.Stats to the traced table. Himeno's Result
	// carries only CommOps and Barriers, and barrier's counts are pinned.
	stats bool
}

var specs = []spec{
	{"himeno", 0.90, []spanKind{spanRun}, false},
	{"dht", 0.95, []spanKind{spanUpdate, spanSync, spanRun}, true},
	{"barrier", 0.80, []spanKind{spanSync, spanRun}, false},
	{"rma", 0.90, []spanKind{spanPut, spanGet, spanSync, spanRun}, true},
}

func specOf(name string) spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	panic("no spec for workload " + name) // newWorkload rejected the name first
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "himeno":
		return himenoWL{}, nil
	case "dht":
		return newDHT(seed), nil
	case "barrier":
		return barrierWL{}, nil
	case "rma":
		return newRMA(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want himeno, dht, barrier or rma)", name)
}

// statsSum accumulates caf.Stats over the images of one job.
type statsSum struct {
	mu sync.Mutex
	s  caf.Stats
}

func (a *statsSum) add(s caf.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := &a.s
	t.Puts += s.Puts
	t.Gets += s.Gets
	t.StridedCalls += s.StridedCalls
	t.Quiets += s.Quiets
	t.Atomics += s.Atomics
	t.LocksAcquired += s.LocksAcquired
	t.LocksReleased += s.LocksReleased
	t.LockTakeovers += s.LockTakeovers
	t.DirectOps += s.DirectOps
	t.AsyncPuts += s.AsyncPuts
	t.Barriers += s.Barriers
}

// splitmix64 is the input generator of the seeded workloads.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv folds one 64-bit word into an FNV-1a style checksum.
func fnv(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const fnvInit = 14695981039346656037

// --- himeno: the Fig 10 configuration ---------------------------------------

const himenoImages = 256

var himenoPrm = himeno.Params{NX: 16, NY: 256, NZ: 8, Iters: 20}

func himenoOpts() caf.Options {
	o := caf.UHCAFOverMV2XSHMEM()
	o.Strided = caf.StridedNaive
	return o
}

type himenoWL struct{}

func (himenoWL) images() int { return himenoImages }

func (himenoWL) job(sp *spans) (outcome, error) {
	t0 := sp.begin()
	r, err := himeno.Run(himenoOpts(), himenoImages, himenoPrm)
	sp.end(0, spanRun, t0)
	if err != nil {
		return outcome{}, fmt.Errorf("himeno.Run: %w", err)
	}
	o := outcome{ops: r.CommOps, vms: r.TimeMs}
	if pinning {
		pinHimeno = himenoPin{r.Gosa, r.TimeMs, r.CommOps, r.Barriers}
	}
	if r.Gosa != pinHimeno.gosa || r.TimeMs != pinHimeno.timeMs ||
		r.CommOps != pinHimeno.commOps || r.Barriers != pinHimeno.barriers {
		return o, fmt.Errorf("himeno output (Gosa %v, TimeMs %v, CommOps %d, Barriers %d) differs from pinned (%v, %v, %d, %d)",
			r.Gosa, r.TimeMs, r.CommOps, r.Barriers,
			pinHimeno.gosa, pinHimeno.timeMs, pinHimeno.commOps, pinHimeno.barriers)
	}
	return o, nil
}

func (himenoWL) setup() error {
	// The solver's only coarray: one (NX, nyAlloc+2, NZ) slab per image, with
	// nyAlloc the largest slab of the j decomposition.
	nyAlloc := (himenoPrm.NY + himenoImages - 1) / himenoImages
	return caf.Run(himenoImages, himenoOpts(), func(img *caf.Image) {
		caf.Allocate[float32](img, himenoPrm.NX, nyAlloc+2, himenoPrm.NZ)
		img.SyncAll()
	})
}

// --- dht: the Fig 9 pattern -------------------------------------------------

const (
	dhtImages    = 64
	dhtBuckets   = 128 // per image
	dhtUpdates   = 200 // per image
	dhtSyncEvery = 10
)

func dhtOpts() caf.Options { return caf.UHCAFOverCraySHMEM(fabric.Titan()) }

type dhtWL struct {
	keys [][]uint64 // [image-1][update]
}

// newDHT draws every image's random keys from the seed. Keys fall in half
// the table's capacity, as in the paper's benchmark, so images contend for
// the same buckets and locks.
func newDHT(seed uint64) *dhtWL {
	w := &dhtWL{keys: make([][]uint64, dhtImages)}
	space := uint64(dhtImages * dhtBuckets / 2)
	for i := range w.keys {
		r := splitmix64(seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
		ks := make([]uint64, dhtUpdates)
		for k := range ks {
			r = splitmix64(r)
			ks[k] = r % space
		}
		w.keys[i] = ks
	}
	return w
}

func (w *dhtWL) images() int { return dhtImages }

func (w *dhtWL) job(sp *spans) (outcome, error) {
	var sum atomic.Int64
	var acc statsSum
	var vt float64
	var updErr atomic.Pointer[error]
	t0 := sp.begin()
	err := caf.Run(dhtImages, dhtOpts(), func(img *caf.Image) {
		me := img.ThisImage()
		t := dht.New(img, dhtBuckets)
		img.Clock().Reset()
		keys := w.keys[me-1]
		for i := 0; i < dhtUpdates; i++ {
			u0 := sp.begin()
			err := t.Update(keys[i], 1)
			sp.end(me, spanUpdate, u0)
			if err != nil {
				updErr.CompareAndSwap(nil, &err)
			}
			if (i+1)%dhtSyncEvery == 0 {
				s0 := sp.begin()
				img.SyncAll()
				sp.end(me, spanSync, s0)
			}
		}
		s0 := sp.begin()
		img.SyncAll()
		sp.end(me, spanSync, s0)
		sum.Add(t.LocalSum())
		if me == 1 {
			vt = img.Clock().Now()
		}
		acc.add(img.Stats)
	})
	sp.end(0, spanRun, t0)
	if err != nil {
		return outcome{}, fmt.Errorf("caf.Run: %w", err)
	}
	o := outcome{ops: acc.s.Ops(), vms: vt / 1e6, stats: acc.s}
	if e := updErr.Load(); e != nil {
		return o, *e
	}
	if want := int64(dhtImages * dhtUpdates); sum.Load() != want {
		return o, fmt.Errorf("dht global sum %d, want images x updates = %d", sum.Load(), want)
	}
	return o, nil
}

func (w *dhtWL) setup() error {
	return caf.Run(dhtImages, dhtOpts(), func(img *caf.Image) {
		dht.New(img, dhtBuckets)
		img.SyncAll()
	})
}

// --- barrier: world construction and the combining-tree barrier ------------

const (
	barrierImages  = 4096
	barrierRounds  = 20
	barrierAdvance = 100 // modelled ns of work before each SyncAll
)

func barrierOpts() caf.Options { return caf.UHCAFOverCraySHMEM(fabric.Titan()) }

type barrierWL struct{}

func (barrierWL) images() int { return barrierImages }

func (barrierWL) job(sp *spans) (outcome, error) {
	var acc statsSum
	var vt float64
	t0 := sp.begin()
	err := caf.Run(barrierImages, barrierOpts(), func(img *caf.Image) {
		me := img.ThisImage()
		for r := 0; r < barrierRounds; r++ {
			img.Clock().Advance(barrierAdvance)
			s0 := sp.begin()
			img.SyncAll()
			sp.end(me, spanSync, s0)
		}
		if me == 1 {
			vt = img.Clock().Now()
		}
		acc.add(img.Stats)
	})
	sp.end(0, spanRun, t0)
	if err != nil {
		return outcome{}, fmt.Errorf("caf.Run: %w", err)
	}
	o := outcome{ops: acc.s.Ops(), vms: vt / 1e6, stats: acc.s}
	if pinning {
		pinBarrier = barrierPin{vt, acc.s}
	}
	if vt != pinBarrier.virtualNs || acc.s != pinBarrier.stats {
		return o, fmt.Errorf("barrier output (virtual %v ns, stats %+v) differs from pinned (%v ns, %+v)",
			vt, acc.s, pinBarrier.virtualNs, pinBarrier.stats)
	}
	return o, nil
}

func (barrierWL) setup() error {
	return caf.Run(barrierImages, barrierOpts(), func(img *caf.Image) { img.SyncAll() })
}

// --- rma: seeded contiguous and 2-dim strided puts and gets -----------------

const (
	rmaImages    = 16
	rmaKinds     = 4  // contiguous put, contiguous get, strided put, strided get
	rmaOctaves   = 14 // sizes 2^3..2^16 bytes, log-uniform within an octave
	rmaReps      = 7
	rmaOps       = rmaKinds * rmaOctaves * rmaReps // per image
	rmaSyncEvery = 50
	rmaVariants  = 1024 // distinct inputs, each pinned in pinRMA

	// Every source image owns one slot per target in each coarray and puts
	// only into its own slot, so no two images race on a byte and the final
	// partitions are a pure function of the inputs. Gets read the caller's
	// own slot back, for the same reason.
	rmaSlot = 8192 // contiguous slot, float64 elements (64 KiB)
	rmaRows = 128  // strided slot: rows (the contiguous dimension)
	rmaCols = 64   // strided slot: columns
)

func rmaOpts() caf.Options { return caf.UHCAFOverCraySHMEM(fabric.CrayXC30()) }

type rmaKind uint8

const (
	rmaPutContig rmaKind = iota
	rmaGetContig
	rmaPutStrided
	rmaGetStrided
)

type rmaOp struct {
	kind   rmaKind
	target int // 1-based
	sec    caf.Section
	src    int // offset of the put's values in the image's pattern buffer
}

// rmaInput is one input variant: every image's op list and what the
// reference model says the job must produce.
type rmaInput struct {
	variant uint64
	ops     [][]rmaOp // [image-1][op]
	// The reference model's results: the checksum of every target's final
	// partitions and, per image, of the values its gets returned.
	wantParts []uint64 // per target image
	wantGets  []uint64 // per source image
}

// rmaWL cycles through a pool of input variants drawn from the seed, one per
// job, so that a run's figures average over op mixes instead of hanging on
// the few largest transfers of a single one.
type rmaWL struct {
	pattern []float64 // put source values; a put of n elements sends pattern[src:src+n]
	pool    []*rmaInput
	next    int
}

const rmaPool = 16 // variants per run

func newRMA(seed uint64) *rmaWL {
	w := &rmaWL{pattern: make([]float64, 2*rmaSlot)}
	for i := range w.pattern {
		w.pattern[i] = float64(i%1000) + 0.25
	}
	for k := uint64(0); k < rmaPool; k++ {
		w.pool = append(w.pool, w.input(splitmix64(seed*rmaPool+k)%rmaVariants))
	}
	return w
}

// input draws every image's op list of one variant: contiguous and strided
// puts and gets in equal numbers to random targets, with sizes log-uniform in
// 8 B-64 KiB (strided sections stop at half that: the stride halves the
// slot's reach).
func (w *rmaWL) input(variant uint64) *rmaInput {
	in := &rmaInput{variant: variant, ops: make([][]rmaOp, rmaImages)}
	for i := range in.ops {
		r := splitmix64(variant*0x2545f4914f6cdd1d + uint64(i+1))
		next := func(n int) int {
			r = splitmix64(r)
			return int(r % uint64(n))
		}
		// Every (kind, size octave) class occurs rmaReps times per image, in
		// seeded order, so variants differ in detail but not in their mix.
		classes := make([]int, 0, rmaOps)
		for c := 0; c < rmaKinds*rmaOctaves; c++ {
			for r := 0; r < rmaReps; r++ {
				classes = append(classes, c)
			}
		}
		for k := len(classes) - 1; k > 0; k-- {
			j := next(k + 1)
			classes[k], classes[j] = classes[j], classes[k]
		}
		ops := make([]rmaOp, rmaOps)
		for k, c := range classes {
			op := rmaOp{kind: rmaKind(c / rmaOctaves), target: next(rmaImages) + 1}
			e := 3 + c%rmaOctaves // 2^3..2^16 bytes
			elems := max(((1<<e)+next(1<<e))/8, 1)
			elems = min(elems, rmaSlot)
			if op.kind == rmaPutContig || op.kind == rmaGetContig {
				lo := i*rmaSlot + next(rmaSlot-elems+1)
				op.sec = caf.Section{{Lo: lo, Hi: lo + elems - 1, Step: 1}}
			} else {
				st0, st1 := 2+next(3), 1+next(2)
				max0, max1 := (rmaRows-1)/st0+1, (rmaCols-1)/st1+1
				c0 := 1 + next(min(max0, elems))
				c1 := min(max(elems/c0, 1), max1)
				lo0 := next(rmaRows - (c0-1)*st0)
				lo1 := i*rmaCols + next(rmaCols-(c1-1)*st1)
				op.sec = caf.Section{
					{Lo: lo0, Hi: lo0 + (c0-1)*st0, Step: st0},
					{Lo: lo1, Hi: lo1 + (c1-1)*st1, Step: st1},
				}
			}
			op.src = next(rmaSlot)
			ops[k] = op
		}
		in.ops[i] = ops
	}
	w.model(in)
	return in
}

// model replays the op lists serially on plain arrays. Slots are disjoint
// per source image, so program order within each image fixes the result.
func (w *rmaWL) model(in *rmaInput) {
	contig := make([][]float64, rmaImages)
	strided := make([][]float64, rmaImages)
	for t := range contig {
		contig[t] = make([]float64, rmaImages*rmaSlot)
		strided[t] = make([]float64, rmaImages*rmaRows*rmaCols)
	}
	in.wantGets = make([]uint64, rmaImages)
	for i, ops := range in.ops {
		h := uint64(fnvInit)
		for _, op := range ops {
			t := op.target - 1
			n := op.sec.NumElems()
			var got []float64
			switch op.kind {
			case rmaPutContig:
				copy(contig[t][op.sec[0].Lo:], w.pattern[op.src:op.src+n])
			case rmaGetContig:
				got = contig[t][op.sec[0].Lo : op.sec[0].Lo+n]
			case rmaPutStrided, rmaGetStrided:
				// Fortran order: the first (row) index varies fastest.
				k := op.src
				for j := op.sec[1].Lo; j <= op.sec[1].Hi; j += op.sec[1].Step {
					for r := op.sec[0].Lo; r <= op.sec[0].Hi; r += op.sec[0].Step {
						if op.kind == rmaPutStrided {
							strided[t][r+rmaRows*j] = w.pattern[k]
							k++
						} else {
							got = append(got, strided[t][r+rmaRows*j])
						}
					}
				}
			}
			if got != nil {
				h = foldGet(h, got)
			}
		}
		in.wantGets[i] = h
	}
	in.wantParts = make([]uint64, rmaImages)
	for t := range contig {
		in.wantParts[t] = foldAll(foldAll(fnvInit, contig[t]), strided[t])
	}
}

// foldGet folds a get's length and end values into an image's checksum.
func foldGet(h uint64, got []float64) uint64 {
	h = fnv(h, uint64(len(got)))
	h = fnv(h, math.Float64bits(got[0]))
	return fnv(h, math.Float64bits(got[len(got)-1]))
}

func foldAll(h uint64, vals []float64) uint64 {
	for _, v := range vals {
		h = fnv(h, math.Float64bits(v))
	}
	return h
}

func (w *rmaWL) images() int { return rmaImages }

func (w *rmaWL) job(sp *spans) (outcome, error) {
	in := w.pool[w.next%len(w.pool)]
	w.next++
	return w.run(in, sp)
}

func (w *rmaWL) run(in *rmaInput, sp *spans) (outcome, error) {
	var acc statsSum
	var vt float64
	gets := make([]uint64, rmaImages)
	parts := make([]uint64, rmaImages)
	t0 := sp.begin()
	err := caf.Run(rmaImages, rmaOpts(), func(img *caf.Image) {
		me := img.ThisImage()
		contig := caf.Allocate[float64](img, rmaImages*rmaSlot)
		strided := caf.Allocate[float64](img, rmaRows, rmaImages*rmaCols)
		img.SyncAll()
		h := uint64(fnvInit)
		ops := in.ops[me-1]
		for k := 0; k < rmaOps; k++ {
			op := ops[k]
			c := contig
			if op.kind == rmaPutStrided || op.kind == rmaGetStrided {
				c = strided
			}
			s0 := sp.begin()
			switch op.kind {
			case rmaPutContig, rmaPutStrided:
				c.Put(op.target, op.sec, w.pattern[op.src:op.src+op.sec.NumElems()])
				sp.end(me, spanPut, s0)
			default:
				got := c.Get(op.target, op.sec)
				sp.end(me, spanGet, s0)
				h = foldGet(h, got)
			}
			if (k+1)%rmaSyncEvery == 0 {
				s0 := sp.begin()
				img.SyncAll()
				sp.end(me, spanSync, s0)
			}
		}
		s0 := sp.begin()
		img.SyncAll()
		sp.end(me, spanSync, s0)
		gets[me-1] = h
		parts[me-1] = foldAll(foldAll(fnvInit, contig.Slice()), strided.Slice())
		if me == 1 {
			vt = img.Clock().Now()
		}
		acc.add(img.Stats)
	})
	sp.end(0, spanRun, t0)
	if err != nil {
		return outcome{}, fmt.Errorf("caf.Run: %w", err)
	}
	o := outcome{ops: acc.s.Ops(), vms: vt / 1e6, stats: acc.s}
	ph := uint64(fnvInit)
	for i := range parts {
		if parts[i] != in.wantParts[i] {
			return o, fmt.Errorf("rma variant %d, image %d: partitions checksum %#x, reference model says %#x", in.variant, i+1, parts[i], in.wantParts[i])
		}
		if gets[i] != in.wantGets[i] {
			return o, fmt.Errorf("rma variant %d, image %d: gets checksum %#x, reference model says %#x", in.variant, i+1, gets[i], in.wantGets[i])
		}
		ph = fnv(ph, parts[i])
	}
	fp := rmaFingerprint(vt, acc.s, ph)
	if pinning {
		pinRMA[in.variant] = fp
	}
	if fp != pinRMA[in.variant] {
		return o, fmt.Errorf("rma variant %d: fingerprint of (virtual %v ns, stats %+v, partitions %#x) is %#x, pinned %#x",
			in.variant, vt, acc.s, ph, fp, pinRMA[in.variant])
	}
	return o, nil
}

// rmaFingerprint hashes the outputs the rma workload pins per input variant:
// the final virtual time, the summed caf.Stats and the partitions checksum.
func rmaFingerprint(vt float64, s caf.Stats, parts uint64) uint64 {
	h := fnv(fnvInit, math.Float64bits(vt))
	for _, v := range []int64{s.Puts, s.Gets, s.StridedCalls, s.Quiets, s.Atomics,
		s.LocksAcquired, s.LocksReleased, s.DirectOps, s.AsyncPuts, s.Barriers} {
		h = fnv(h, uint64(v))
	}
	return fnv(h, parts)
}

func (w *rmaWL) setup() error {
	return caf.Run(rmaImages, rmaOpts(), func(img *caf.Image) {
		caf.Allocate[float64](img, rmaImages*rmaSlot)
		caf.Allocate[float64](img, rmaRows, rmaImages*rmaCols)
		img.SyncAll()
	})
}
