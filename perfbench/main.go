// Command perfbench is the repository benchmark: it runs one named
// workload through the simulator's public packages for a fixed number of
// host seconds, checks the simulated outputs, and prints one JSON result
// line. With -trace 1 it alternates untraced and traced iterations and
// reports per-layer metrics instead of end-to-end ones.
//
//	go run . -workload guest-mix -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// outcome is what one iteration's timed phase produced.
type outcome struct {
	// ops counts the workload's unit of work (see README.md); failed
	// counts ops the program reported as failed.
	ops, failed int64
	// lat holds the host CPU time of each latency unit, in ms.
	lat []float64
	// digest hashes every simulated output of the iteration.
	digest uint64
	// sim holds simulated outputs (repeat exactly at a fixed seed).
	sim map[string]float64
	// facts holds per-layer counts the program reports for the
	// iteration; the traced run joins them with span times.
	facts map[string]float64
	// checks are the iteration's correctness checks.
	checks []check
}

type check struct {
	name   string
	ok     bool
	detail string
}

// instance is one set-up workload, ready for its timed phase.
type instance interface {
	// run executes the timed phase once. tr is nil on untraced runs.
	run(ctx context.Context, tr *Tracer) (*outcome, error)
	// close releases what setup built; it is not timed.
	close()
}

// workloadDef names a workload and builds its set-up state from a seed.
// Setup is timed separately as setup_s.
type workloadDef struct {
	name  string
	setup func(seed int64, tr *Tracer) (instance, error)
}

var workloads = []workloadDef{
	{"guest-mix", setupGuestMix},
	{"fleet-churn", setupFleetChurn},
	{"serve-churn", setupServeChurn},
	{"hammer", setupHammer},
}

// iteration is one set-up + timed phase.
type iteration struct {
	k          int // input index: the iteration ran iterSeed(seed, k)
	traced     bool
	setup      time.Duration // process CPU time of the set-up
	cpu        time.Duration // process CPU time of the timed phase
	wall       time.Duration // wall time of the timed phase
	ref        time.Duration // mean CPU time of the reference loop around it (hostspeed.go)
	allocBytes uint64        // TotalAlloc delta over the timed phase
	out        *outcome
	tr         *Tracer
}

// scale converts the iteration's process CPU times to reference-host
// time (hostspeed.go).
func (it iteration) scale() float64 { return float64(refNominal) / float64(it.ref) }

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: guest-mix, fleet-churn, serve-churn or hammer")
	seed := flag.Int64("seed", 1, "workload seed; inputs derive from it alone")
	seconds := flag.Int("seconds", 10, "host seconds to keep iterating")
	trace := flag.Int("trace", 0, "1 = alternate untraced and traced iterations and report per-layer metrics")
	flag.Parse()
	// One P: the simulation is single-threaded by design, the process CPU
	// clock is then exact, and the GC's work lands in the timed phases it
	// belongs to instead of on the host's other core.
	runtime.GOMAXPROCS(1)

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of guest-mix|fleet-churn|serve-churn|hammer, -seconds >= 1, -trace 0|1\n")
		return 2
	}

	iters, err := measure(context.Background(), *def, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	return report(os.Stdout, *def, *seed, *trace == 1, iters)
}

// minIters is the fewest timed iterations (inputs) a run makes, not
// counting the warm-up.
const minIters = 3

// iterSeed is iteration k's input seed. Iteration 0 runs the workload
// seed itself; later iterations draw fresh inputs from a fixed sequence,
// so a run's medians average over several inputs and compare across
// seeds, while the same seed always yields the same sequence.
func iterSeed(seed int64, k int) int64 {
	return seed ^ int64(uint64(k)*0x9E3779B97F4A7C15>>1)
}

// measure runs iterations while the next one is expected to end within
// budget (and at least minIters after the warm-up). Iteration 0 is the
// warm-up: it is checked but not timed. In traced mode each input runs
// twice, untraced then traced, so trace_overhead_pct compares like with
// like and the two runs' digests must agree.
func measure(ctx context.Context, def workloadDef, seed int64, budget time.Duration, traced bool) ([]iteration, error) {
	var iters []iteration
	start := time.Now()
	for k := 0; k <= minIters || time.Since(start)*time.Duration(k+1)/time.Duration(k) <= budget; k++ {
		it, err := runIteration(ctx, def, iterSeed(seed, k), false)
		if err != nil {
			return nil, err
		}
		it.k = k
		iters = append(iters, it)
		if traced {
			it, err := runIteration(ctx, def, iterSeed(seed, k), true)
			if err != nil {
				return nil, err
			}
			it.k = k
			iters = append(iters, it)
		}
	}
	return iters, nil
}

func runIteration(ctx context.Context, def workloadDef, seed int64, traced bool) (iteration, error) {
	it := iteration{traced: traced}
	if traced {
		it.tr = NewTracer(spanSampleEvery)
	}
	// Start every iteration from a collected heap so one iteration's
	// garbage is not charged to the next.
	runtime.GC()
	ref0 := refLoop()
	setup0 := cpuTime()
	inst, err := def.setup(seed, it.tr)
	it.setup = cpuTime() - setup0
	if err != nil {
		return it, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t1 := time.Now()
	out, err := inst.run(ctx, it.tr)
	it.wall = time.Since(t1)
	it.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	it.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	it.ref = (ref0 + refLoop()) / 2
	if err != nil {
		return it, err
	}
	it.out = out
	return it, nil
}

// spanSampleEvery keeps full spans for one op in this many; counts and
// busy/self time are kept for every call.
const spanSampleEvery = 4096

// cpuTime is the CPU time the process has used, on all threads, read
// from CLOCK_PROCESS_CPUTIME_ID. With GOMAXPROCS=1 only the calling thread
// runs Go code, so the reading is exact to the nanosecond; getrusage
// would lag by up to a scheduler tick.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// cpuMsSince is the CPU time used since cpu0, in milliseconds.
func cpuMsSince(cpu0 time.Duration) float64 {
	return float64((cpuTime() - cpu0).Nanoseconds()) / 1e6
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report checks every iteration, prints the manifest and the metrics,
// and returns the exit code.
func report(w io.Writer, def workloadDef, seed int64, traced bool, iters []iteration) int {
	out := bufio.NewWriter(w)

	res := result{Correct: true, Metrics: map[string]metric{}}
	var checks []check
	digests := map[int]uint64{}
	for _, it := range iters {
		res.Attempted += it.out.ops
		res.Failed += it.out.failed
		for _, c := range it.out.checks {
			if !c.ok {
				res.Correct = false
				checks = append(checks, check{c.name, false, fmt.Sprintf("input %d: %s", it.k, c.detail)})
			}
		}
		if d, ok := digests[it.k]; ok && d != it.out.digest {
			res.Correct = false
			checks = append(checks, check{"sim_digest_traced", false,
				fmt.Sprintf("input %d: traced digest %016x != untraced %016x", it.k, it.out.digest, d)})
		}
		digests[it.k] = it.out.digest
	}
	if res.Correct {
		checks = append(checks, iters[0].out.checks...)
		if traced {
			checks = append(checks, check{"sim_digest_traced", true,
				fmt.Sprintf("traced and untraced runs of all %d inputs share their digests", len(digests))})
		}
	}
	digest := iters[0].out.digest

	// The warm-up (input 0) is checked above but not timed.
	var plain, tracedIters []iteration
	for _, it := range iters {
		if it.k == 0 {
			continue
		}
		if it.traced {
			tracedIters = append(tracedIters, it)
		} else {
			plain = append(plain, it)
		}
	}

	fmt.Fprintf(out, "# perfbench workload=%s seed=%d trace=%v inputs=%d iterations=%d (traced %d; input 0 is the untimed warm-up)\n",
		def.name, seed, traced, len(digests), len(iters), len(tracedIters))
	printManifest(out, plain)
	fmt.Fprintf(out, "# sim_digest=%016x (input 0: the seed itself)\n", digest)
	sim := iters[0].out.sim
	for _, k := range sortedKeys(sim) {
		fmt.Fprintf(out, "# %s %v (simulated, input 0)\n", k, sim[k])
	}

	if traced {
		perLayer := layerMetrics(plain, tracedIters)
		for _, s := range perLayerSpecs {
			res.Metrics[s.name] = metric{perLayer[s.name], s.unit}
		}
		if err := writeSpans(filepath.Join(".perfbench", "traces", fmt.Sprintf("%s-seed%d.jsonl", def.name, seed)), tracers(tracedIters)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			res.Correct = false
		}
	} else {
		e2e, tail := endToEnd(plain)
		for _, m := range endToEndSpecs {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
			fmt.Fprintf(out, "# %s %v %s\n", m.name, e2e[m.name], m.unit)
		}
		fmt.Fprintf(out, "# unscaled process CPU time: setup %v s, timed phase %v s, %v ops per CPU second\n",
			e2e["raw_setup_s"], e2e["raw_cpu_s"], e2e["raw_ops_per_s"])
		fmt.Fprintf(out, "# wall-clock equivalents: timed phase %v s, %v ops per wall second\n",
			e2e["wall_s"], e2e["ops_per_wall_s"])
		fmt.Fprintf(out, "# op_tail_ms is p%v over %d samples (%d beyond it)\n", tail.pct, tail.n, tail.beyond)
		fmt.Fprintf(out, "# failed_frac %v (failed/attempted)\n", float64(res.Failed)/float64(res.Attempted))
	}

	for _, c := range checks {
		status := "PASS"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(out, "# check %s: %s (%s)\n", c.name, status, c.detail)
	}
	line, err := json.Marshal(res)
	if err == nil {
		fmt.Fprintf(out, "%s\n", line)
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printManifest records what the numbers were measured on, and CPU time
// against wall time over the timed phases: a ratio well above 1 means
// more than one thread was busy.
func printManifest(out *bufio.Writer, iters []iteration) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	var cpu, wall time.Duration
	var refs []float64
	for _, it := range iters {
		cpu += it.cpu
		wall += it.wall
		refs = append(refs, it.ref.Seconds()*1e3)
	}
	fmt.Fprintf(out, "# manifest go=%s gomaxprocs=%d nproc=%d commit=%s cpu_s=%.3f wall_s=%.3f cpu_per_wall=%.3f ref_loop_ms=%.3f (nominal %v)\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit,
		cpu.Seconds(), wall.Seconds(), cpu.Seconds()/wall.Seconds(), median(refs), refNominal)
}

func tracers(iters []iteration) []*Tracer {
	var out []*Tracer
	for _, it := range iters {
		out = append(out, it.tr)
	}
	return out
}

// peakRSSMiB is the process's VmHWM.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
