package main

import (
	"fmt"
	"time"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// A probe times one layer entry point in isolation, at a shape one of the
// workloads uses, and reports host ns and heap allocations per call.
type probeResult struct {
	name   string
	ns     float64
	allocs float64
}

// sink keeps the compiler from discarding probed results.
var sink float64

const (
	probeBatch   = 10 * time.Millisecond
	probeBatches = 7
)

// measure runs op in batches of about probeBatch and returns the median
// batch's ns per call and the mean heap allocations per call.
func measure(op func()) (ns, allocs float64) {
	op()
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t) >= probeBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, probeBatches)
	a0 := heapAllocs("/gc/heap/allocs:objects")
	for b := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	allocs = float64(heapAllocs("/gc/heap/allocs:objects")-a0) / float64(probeBatches*n)
	return median(per), allocs
}

// runProbes measures every probe, grouped by layer from the bottom up.
func runProbes() ([]probeResult, error) {
	var out []probeResult
	add := func(name string, ns, allocs float64) {
		out = append(out, probeResult{name, ns, allocs})
	}

	// fabric: the cost model evaluated for an 8 KiB put and a 64-element
	// strided pencil on the rma workload's machine.
	prof := fabric.CrayXC30().MustProfile(fabric.ProfCraySHMEM)
	ns, al := measure(func() { sink += prof.PutInjectNs(8192, false, 1) })
	add("fabric.put_inject", ns, al)
	ns, al = measure(func() { sink += prof.StridedInjectNs(64, 8, false, 1) })
	add("fabric.strided_inject", ns, al)

	// pgas: the codec and the partition copy paths on a 2-PE world.
	src := make([]float64, 1024)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, 1024)
	buf := pgas.EncodeSlice(nil, src)
	ns, al = measure(func() { buf = pgas.EncodeSlice(buf[:0], src) })
	add("pgas.encode_f64_8k", ns, al)
	ns, al = measure(func() { pgas.DecodeSlice(dst, buf) })
	add("pgas.decode_f64_8k", ns, al)
	pw, err := pgas.NewWorld(fabric.Stampede(), 2)
	if err != nil {
		return nil, fmt.Errorf("pgas.NewWorld: %w", err)
	}
	data := make([]byte, 8192)
	vis := 0.0
	ns, al = measure(func() { vis++; pw.Write(1, 0, data, vis) })
	add("pgas.write_8k", ns, al)
	ns, al = measure(func() { pw.Read(1, 0, data) })
	add("pgas.read_8k", ns, al)
	// Himeno's halo plane under the naive strided algorithm: NZ=8 runs of
	// NX=16 float32 (64 B), one (NX x 3) slab apart.
	const runBytes, nRuns, runStride = 64, 8, 16 * 3 * 4
	offs := make([]int64, nRuns)
	visAt := make([]float64, nRuns)
	for i := range offs {
		offs[i] = int64(i * runStride)
	}
	runs := make([]byte, nRuns*runBytes)
	ns, al = measure(func() {
		vis++
		for i := range visAt {
			visAt[i] = vis
		}
		pw.WriteRuns(1, 1<<16, offs, runBytes, runs, visAt)
	})
	add("pgas.write_runs_himeno", ns, al)
	ns, al = measure(func() { pw.ReadRuns(1, 1<<16, offs, runBytes, runs) })
	add("pgas.read_runs_himeno", ns, al)
	ns, al = measure(func() { vis++; sink += float64(pw.RMW64(1, 1<<17, pgas.OpSwap, uint64(vis), vis)) })
	add("pgas.rmw64", ns, al)
	ns, al, err = probeBarrier1k()
	if err != nil {
		return nil, err
	}
	add("pgas.barrier_1k", ns, al)

	// shmem: the OpenSHMEM entry points under caf; PE 0 drives a 2-PE world.
	sw, err := shmem.NewWorld(shmem.Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}, 2)
	if err != nil {
		return nil, fmt.Errorf("shmem.NewWorld: %w", err)
	}
	ipsrc := make([]byte, 256*8)
	var shm [4]probeResult
	err = sw.PgasWorld().Run(func(p *pgas.PE) {
		pe := sw.Attach(p)
		sym := pe.Malloc(1 << 20)
		if p.ID == 0 {
			shm[0].ns, shm[0].allocs = measure(func() { pe.PutMem(1, sym, 0, data) })
			shm[1].ns, shm[1].allocs = measure(func() { pe.GetMem(1, sym, 0, data) })
			shm[2].ns, shm[2].allocs = measure(func() { pe.IPutMem(1, sym, 0, 32, 8, ipsrc) })
			shm[3].ns, shm[3].allocs = measure(func() { sink += float64(pe.Swap(1, sym, 8, int64(vis))) })
		}
		pe.Barrier()
	})
	if err != nil {
		return nil, fmt.Errorf("shmem probes: %w", err)
	}
	for i, name := range []string{"shmem.putmem_8k", "shmem.getmem_8k", "shmem.iputmem", "shmem.swap"} {
		add(name, shm[i].ns, shm[i].allocs)
	}

	// caf: one image drives a 2-image world while the other waits.
	contig := caf.All(1024)
	strided := caf.Section{{Lo: 0, Hi: 126, Step: 2}, {Lo: 0, Hi: 63, Step: 1}}
	svals := make([]float64, strided.NumElems())
	cafProbes := []struct {
		name string
		opts caf.Options
		op   func(c1, c2 *caf.Coarray[float64], l *caf.Lock) func()
	}{
		{"caf.put_contig_8k", rmaOpts(), func(c, _ *caf.Coarray[float64], _ *caf.Lock) func() {
			return func() { c.Put(2, contig, src) }
		}},
		{"caf.get_contig_8k", rmaOpts(), func(c, _ *caf.Coarray[float64], _ *caf.Lock) func() {
			return func() { sink += c.Get(2, contig)[0] }
		}},
		{"caf.put_strided", rmaOpts(), func(_, c *caf.Coarray[float64], _ *caf.Lock) func() {
			return func() { c.Put(2, strided, svals) }
		}},
		{"caf.get_strided", rmaOpts(), func(_, c *caf.Coarray[float64], _ *caf.Lock) func() {
			return func() { sink += c.Get(2, strided)[0] }
		}},
		{"caf.lock_pair", dhtOpts(), func(_, _ *caf.Coarray[float64], l *caf.Lock) func() {
			return func() { l.Acquire(2); l.Release(2) }
		}},
		{"caf.put_contig_8k.gasnet", caf.UHCAFOverGASNet(fabric.Stampede(), fabric.ProfGASNetIBV),
			func(c, _ *caf.Coarray[float64], _ *caf.Lock) func() {
				return func() { c.Put(2, contig, src) }
			}},
		{"caf.put_contig_8k.mpi3", caf.UHCAFOverMV2XMPI3(), func(c, _ *caf.Coarray[float64], _ *caf.Lock) func() {
			return func() { c.Put(2, contig, src) }
		}},
	}
	for _, p := range cafProbes {
		var ns, al float64
		err := caf.Run(2, p.opts, func(img *caf.Image) {
			c1 := caf.Allocate[float64](img, 1024)
			c2 := caf.Allocate[float64](img, 128, 64)
			l := caf.NewLock(img)
			img.SyncAll()
			if img.ThisImage() == 1 {
				ns, al = measure(p.op(c1, c2, l))
			}
			img.SyncAll()
		})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		add(p.name, ns, al)
	}
	return out, nil
}

// probeBarrier1k times full-world barrier rounds of a 1024-PE pgas world:
// PE 0 times batches of rounds that every PE runs.
func probeBarrier1k() (ns, allocs float64, err error) {
	const pes, warm, batch = 1024, 20, 40
	w, err := pgas.NewWorld(fabric.Titan(), pes)
	if err != nil {
		return 0, 0, fmt.Errorf("pgas.NewWorld: %w", err)
	}
	per := make([]float64, probeBatches)
	var a0, a1 uint64
	err = w.Run(func(p *pgas.PE) {
		round := func() {
			p.Clock.Advance(1)
			p.Barrier(0)
		}
		for i := 0; i < warm; i++ {
			round()
		}
		if p.ID == 0 {
			a0 = heapAllocs("/gc/heap/allocs:objects")
		}
		for b := range per {
			t := time.Now()
			for i := 0; i < batch; i++ {
				round()
			}
			if p.ID == 0 {
				per[b] = float64(time.Since(t).Nanoseconds()) / batch
			}
		}
		if p.ID == 0 {
			a1 = heapAllocs("/gc/heap/allocs:objects")
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("pgas barrier probe: %w", err)
	}
	return median(per), float64(a1-a0) / float64(probeBatches*batch), nil
}
