// Command perfbench measures what the simulator costs its host: four
// workloads driven through the library's public entry points, end-to-end
// metrics from an untraced run, and a per-layer split from a traced run.
// See README.md for the workloads, the metrics and how to read them.
//
//	bash perfbench/run.sh --workload himeno --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines above it are a readable report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	warmup      = 2 * time.Second // discarded jobs before anything is timed
	setupRuns   = 7               // at least this many set-up-only jobs
	setupBudget = time.Second     // and set-up jobs for at least this long
	profDir     = ".bench_build"  // CPU profiles of traced runs, relative to the checkout root
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: himeno, dht, barrier or rma")
	seed := fs.Uint64("seed", 1, "input seed (dht keys, rma op mix)")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	pin := fs.Bool("pin", false, "print pins_table.go as measured on this tree and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *pin {
		return printPins()
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return 2, err
	}
	b := &bench{res: result{Metrics: map[string]metric{}}}
	printHost(*name, *seed, *seconds, *trace)
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = b.endToEnd(*name, w, budget)
	} else {
		err = b.perLayer(*name, *seed, w, budget)
	}
	if err != nil {
		return 1, err
	}
	b.res.Correct = b.res.Failed == 0
	if err := b.report(); err != nil {
		return 1, err
	}
	return 0, nil
}

// printHost records the host fingerprint beside every result.
func printHost(name string, seed uint64, seconds, trace int) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("# host: %s GOMAXPROCS=%d nproc=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
}

type bench struct {
	res result
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{v, unit}
}

// jobRec is one timed job.
type jobRec struct {
	cpu  float64 // host CPU seconds, every thread of the process
	wall float64 // host wall seconds
	rss  float64 // peak resident MB during the job
	o    outcome
}

// cpuSecs is the process's user plus system CPU time. Jobs are timed in CPU
// seconds because on a shared virtual machine the hypervisor's steal time
// lands in wall time: runs of one workload spread 15-26% in wall time and
// 5-7% in CPU time while steal moved between 0% and 11%.
func cpuSecs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// settle runs before every job, untimed, so that each job starts from the
// same process state whatever ran before it. The previous job's world is
// garbage by now, so the collection marks almost nothing and the GC cycles a
// job's own allocations trigger stay inside its time. The free heap goes
// back to the OS and the resident high-water mark is reset (Linux
// /proc/self/clear_refs), so the maxrss read after the job is that job's own
// peak: freed heap would otherwise stay resident, and the process-lifetime
// maxrss varied 12-22% from run to run with what earlier jobs left behind.
func settle() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// maxRSS is the process's resident high-water mark in MB (10^6 bytes).
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports maxrss in KiB
}

// jobs runs jobs of w until budget has elapsed and at least minJobs ran. It
// returns the records and the heap bytes the jobs allocated.
func (b *bench) jobs(w workload, sp *spans, budget time.Duration, minJobs int) ([]jobRec, uint64, error) {
	var recs []jobRec
	a0 := heapAllocs("/gc/heap/allocs:bytes")
	start := time.Now()
	for len(recs) < minJobs || time.Since(start) < budget {
		if err := settle(); err != nil {
			return nil, 0, err
		}
		c0, t := cpuSecs(), time.Now()
		o, err := w.job(sp)
		recs = append(recs, jobRec{cpu: cpuSecs() - c0, wall: time.Since(t).Seconds(), rss: maxRSS(), o: o})
		b.count(err)
		if sp != nil {
			sp.merge()
		}
	}
	return recs, heapAllocs("/gc/heap/allocs:bytes") - a0, nil
}

func (b *bench) count(err error) {
	b.res.Attempted++
	if err != nil {
		if b.res.Failed < 3 {
			fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
		}
		b.res.Failed++
	}
}

// heapAllocs reads a cumulative heap allocation counter of runtime/metrics:
// "/gc/heap/allocs:bytes" or "/gc/heap/allocs:objects".
func heapAllocs(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// simopsPerSec is simulated ops per host CPU second over recs.
func simopsPerSec(recs []jobRec) float64 {
	var ops int64
	var cpu float64
	for _, r := range recs {
		ops += r.o.ops
		cpu += r.cpu
	}
	return float64(ops) / cpu
}

// endToEnd is the untraced run: warm-up, set-up jobs, then timed jobs for
// the budget.
func (b *bench) endToEnd(name string, w workload, budget time.Duration) error {
	if _, _, err := b.jobs(w, nil, warmup, 2); err != nil {
		return err
	}
	var setup []float64
	for start := time.Now(); len(setup) < setupRuns || time.Since(start) < setupBudget; {
		if err := settle(); err != nil {
			return err
		}
		c0 := cpuSecs()
		err := w.setup()
		setup = append(setup, cpuSecs()-c0)
		b.count(err)
	}
	recs, alloc, err := b.jobs(w, nil, budget, 1)
	if err != nil {
		return err
	}
	cpu := make([]float64, len(recs))
	wall := make([]float64, len(recs))
	rss := make([]float64, len(recs))
	for i, r := range recs {
		cpu[i], wall[i], rss[i] = r.cpu, r.wall, r.rss
	}
	tail := specOf(name).tail
	fmt.Printf("# %d timed jobs; job_s_tail is p%.0f\n", len(recs), 100*tail)
	fmt.Printf("# wall seconds per job (not gated, steal-sensitive): p50 %.4f, p%.0f %.4f\n",
		median(wall), 100*tail, percentile(wall, tail))
	b.set("simops_per_s", simopsPerSec(recs), "1/s")
	b.set("job_s_p50", median(cpu), "s")
	b.set("job_s_tail", percentile(cpu, tail), "s")
	b.set("setup_s", median(setup), "s")
	b.set("alloc_mb_per_job", float64(alloc)/float64(len(recs))/1e6, "MB")
	b.set("peak_rss_mb", median(rss), "MB")
	return nil
}

// shareBucketsOf lists the host-share buckets a workload can reach: every
// layer and runtime bucket, and its own app module only.
func shareBucketsOf(name string) []string {
	var out []string
	for _, m := range shareBuckets {
		if (m == "himeno" || m == "dht") && m != name {
			continue
		}
		out = append(out, m)
	}
	return out
}

// perLayer is the traced run. The requested workload runs untraced and then
// traced for a quarter of the budget each, which gives the tracing overhead;
// every other workload then runs traced for an eighth of it, so each traced
// run prints the full per-layer table; the layer probes come last.
func (b *bench) perLayer(name string, seed uint64, w workload, budget time.Duration) error {
	if _, _, err := b.jobs(w, nil, warmup, 2); err != nil {
		return err
	}
	plain, _, err := b.jobs(w, nil, budget/4, 1)
	if err != nil {
		return err
	}
	untraced := simopsPerSec(plain)
	var traced float64
	for _, ws := range specs {
		x, seg := w, budget/4
		if ws.name != name {
			var err error
			if x, err = newWorkload(ws.name, seed); err != nil {
				return err
			}
			seg = budget / 8
			if _, _, err := b.jobs(x, nil, 0, 1); err != nil {
				return err
			}
		}
		recs, err := b.tracedSegment(ws.name, x, seg)
		if err != nil {
			return err
		}
		if ws.name == name {
			traced = simopsPerSec(recs)
		}
	}
	fmt.Printf("# tracing overhead on %s: untraced %.0f simops/s, traced %.0f simops/s\n", name, untraced, traced)
	b.set("trace_overhead_pct", 100*(untraced-traced)/untraced, "%")

	probes, err := runProbes()
	if err != nil {
		return err
	}
	for _, p := range probes {
		b.set(p.name+".ns", p.ns, "ns")
		b.set(p.name+".allocs", p.allocs, "count")
	}
	return nil
}

// tracedSegment runs traced jobs of one workload under a CPU profile and
// records its host shares, spans and modelled counts.
func (b *bench) tracedSegment(name string, w workload, budget time.Duration) ([]jobRec, error) {
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	prof := filepath.Join(profDir, fmt.Sprintf("perfbench-%d-%s.pprof", os.Getpid(), name))
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	defer os.Remove(prof)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	sp := newSpans(w.images())
	recs, _, err := b.jobs(w, sp, budget, 2)
	pprof.StopCPUProfile()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write CPU profile: %w", err)
	}
	shares, err := hostShares(prof)
	if err != nil {
		return nil, err
	}
	for _, m := range shareBucketsOf(name) {
		b.set(name+".host_share."+m, 100*shares[m], "%")
	}
	ws := specOf(name)
	for _, k := range ws.spans {
		d := make([]float64, len(sp.all[k]))
		for i, ns := range sp.all[k] {
			d[i] = float64(ns) / 1e3
		}
		base := name + "." + spanNames[k]
		b.set(base+".count", float64(len(d)), "count")
		b.set(base+".p50_us", median(d), "us")
		b.set(base+".p99_us", percentile(d, 0.99), "us")
	}
	vms := make([]float64, len(recs))
	ops := make([]float64, len(recs))
	for i, r := range recs {
		vms[i], ops[i] = r.o.vms, float64(r.o.ops)
	}
	b.set(name+".virtual_ms", median(vms), "ms")
	b.set(name+".simops_per_job", median(ops), "count")
	if ws.stats {
		for _, f := range statFields {
			v := make([]float64, len(recs))
			for i, r := range recs {
				v[i] = float64(f.get(r.o))
			}
			b.set(name+".caf.stats."+f.name, median(v), "count")
		}
	}
	if name == "dht" {
		// Fig 9's run-to-run nondeterminism, shown and not gated on: contended
		// atomics apply in host arrival order (ROADMAP item 3).
		distinct := map[float64]bool{}
		for _, v := range vms {
			distinct[v] = true
		}
		sort.Float64s(vms)
		b.set("dht.virtual_ms.min", vms[0], "ms")
		b.set("dht.virtual_ms.max", vms[len(vms)-1], "ms")
		b.set("dht.virtual_ms.distinct", float64(len(distinct)), "count")
	}
	return recs, nil
}

var statFields = []struct {
	name string
	get  func(outcome) int64
}{
	{"puts", func(o outcome) int64 { return o.stats.Puts }},
	{"gets", func(o outcome) int64 { return o.stats.Gets }},
	{"strided_calls", func(o outcome) int64 { return o.stats.StridedCalls }},
	{"quiets", func(o outcome) int64 { return o.stats.Quiets }},
	{"atomics", func(o outcome) int64 { return o.stats.Atomics }},
	{"locks_acquired", func(o outcome) int64 { return o.stats.LocksAcquired }},
	{"barriers", func(o outcome) int64 { return o.stats.Barriers }},
}

// report prints the readable table, then the result as the last line.
func (b *bench) report() error {
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# jobs attempted %d, failed %d\n", b.res.Attempted, b.res.Failed)
	out, err := json.Marshal(b.res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(out))
	return nil
}
