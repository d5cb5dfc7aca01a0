package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// spanKind names a span the benchmark records around its own calls into the
// library. Spans inside the library are a later change.
type spanKind int

const (
	spanRun    spanKind = iota // one job: caf.Run world (himeno.Run for himeno), construction to teardown
	spanPut                    // caf.Coarray.Put
	spanGet                    // caf.Coarray.Get
	spanSync                   // caf.Image.SyncAll
	spanUpdate                 // dht.Table.Update
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"caf.run", "caf.put", "caf.get", "caf.sync_all", "dht.update"}

// spans keeps span durations in memory. Each image appends to its own
// buffers (slot 0 is the benchmark's goroutine), so recording takes no lock;
// merge runs after the job's world has returned.
type spans struct {
	per [][nSpanKinds][]int64
	all [nSpanKinds][]int64
}

func newSpans(images int) *spans {
	return &spans{per: make([][nSpanKinds][]int64, images+1)}
}

// begin starts a span; on a nil recorder (untraced run) it costs a nil check.
func (s *spans) begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) end(image int, k spanKind, t0 time.Time) {
	if s == nil {
		return
	}
	s.per[image][k] = append(s.per[image][k], int64(time.Since(t0)))
}

func (s *spans) merge() {
	for i := range s.per {
		for k := range s.per[i] {
			s.all[k] = append(s.all[k], s.per[i][k]...)
			s.per[i][k] = s.per[i][k][:0]
		}
	}
}

// --- host CPU attribution ---------------------------------------------------

// Host-share buckets: the repository's modules, plus garbage collection,
// goroutine scheduling and everything else (the benchmark itself, and stacks
// with no module frame).
var shareBuckets = []string{"caf", "shmem", "pgas", "fabric", "himeno", "dht", "gc", "sched", "other"}

// moduleOf maps a symbolised frame to its bucket, or "" for a frame that
// only does work for its caller (runtime, sync and other standard-library
// helpers such as memmove and mallocgc).
func moduleOf(fn string) string {
	if isGCFrame(fn) {
		return "gc"
	}
	if isSchedFrame(fn) {
		return "sched"
	}
	if strings.HasPrefix(fn, "main.") {
		return "other" // the benchmark's own work, such as span timestamps and output checks
	}
	const mod = "cafshmem/internal/"
	if !strings.HasPrefix(fn, mod) {
		return ""
	}
	pkg := fn[len(mod):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "caf", "pgas", "fabric", "himeno", "dht":
		return pkg
	case "shmem", "gasnet", "mpi3":
		return "shmem" // the transport layer under caf
	}
	return "other"
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.scan", "runtime.mark", "runtime.greyobject",
		"runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*gcWork)",
		"runtime.(*gcControllerState)", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.(*scavengerState)",
		"runtime.(*pageAlloc).scavenge", "runtime.(*mheap).reclaim", "runtime.deductSweepCredit"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isSchedFrame(fn string) bool {
	for _, p := range []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.mPark", "runtime.notesleep", "runtime.notewakeup",
		"runtime.runqgrab", "runtime.runqsteal", "runtime.goschedImpl", "runtime.gosched_m",
		"runtime.newproc", "runtime.goexit0", "runtime.execute", "runtime.handoffp",
		"runtime.resetspinning", "runtime.checkTimers", "runtime.netpoll", "runtime.sysmon",
		"runtime.semasleep", "runtime.semawakeup", "runtime.futexsleep", "runtime.futexwakeup",
		"runtime.mcall", "runtime.startTheWorld", "runtime.stopTheWorld", "runtime.parkunlock",
		"runtime.goexit1", "runtime.gdestroy", "runtime.(*timer)", "runtime.(*timers)",
		"runtime.resetForSleep", "runtime.timeSleep"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// hostShares aggregates a CPU profile with `go tool pprof -traces` and
// attributes each sample's self time to a bucket: walking the stack from the
// leaf, the first GC, scheduler or benchmark frame, or else the first frame of
// one of the repository's modules, decides. Runtime helpers working for a
// module (memmove, mallocgc) thereby count to that module, GC assists to gc.
// Shares are fractions of all samples.
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	totals := map[string]float64{}
	var sum float64
	var cur float64 // value of the sample being read
	bucket := ""    // decided bucket of the sample being read, "" while undecided
	flush := func() {
		if cur == 0 {
			return
		}
		if bucket == "" {
			bucket = "other"
		}
		totals[bucket] += cur
		sum += cur
		cur, bucket = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := false // the next line opens a sample: its value, then the leaf frame
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			first = true
			continue
		}
		if first {
			first = false
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof sample value %q: %w", f[0], err)
			}
			cur, line = d.Seconds(), strings.Join(f[1:], " ")
		}
		if fn := strings.TrimSuffix(strings.TrimSpace(line), " (inline)"); cur != 0 && bucket == "" {
			bucket = moduleOf(fn)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sum == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", profile)
	}
	for k := range totals {
		totals[k] /= sum
	}
	return totals, nil
}

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the middle value of xs, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
