package main

import (
	"math"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
}

// endToEndSpecs are printed by every untraced run, on every workload.
// Simulated outputs are not among them: they repeat exactly at a seed and
// are pinned by sim_digest instead (see README.md).
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"alloc_mib", "MiB", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayerSpecs are printed by every traced run, on every workload; a
// layer the workload does not reach reads 0.
var perLayerSpecs = []metricSpec{
	{"workload.generate.self_s", "s", "lower"},
	{"workload.generate.accesses", "count", "lower"},
	{"workload.generate.write_frac", "frac", "lower"},
	{"core.translate.calls", "count", "lower"},
	{"core.translate.self_s", "s", "lower"},
	{"core.translate.ns_per_call", "ns", "lower"},
	{"core.translate.errors", "count", "lower"},
	{"memctrl.cache.calls", "count", "lower"},
	{"memctrl.cache.self_s", "s", "lower"},
	{"memctrl.cache.ns_per_call", "ns", "lower"},
	{"memctrl.cache.hit_ratio", "frac", "higher"},
	{"memctrl.ctrl.calls", "count", "lower"},
	{"memctrl.ctrl.self_s", "s", "lower"},
	{"memctrl.ctrl.ns_per_call", "ns", "lower"},
	{"memctrl.ctrl.row_hit_ratio", "frac", "higher"},
	{"memctrl.ctrl.sim_latency_ns", "ns", "lower"},
	{"addr.decode_bank.calls", "count", "lower"},
	{"addr.decode_bank.self_s", "s", "lower"},
	{"addr.decode_bank.ns_per_call", "ns", "lower"},
	{"fleet.admit.calls", "count", "lower"},
	{"fleet.admit.self_s", "s", "lower"},
	{"fleet.admit.p50_ms", "ms", "lower"},
	{"fleet.admit.refused", "count", "lower"},
	{"fleet.depart.calls", "count", "lower"},
	{"fleet.depart.wait_s", "s", "lower"},
	{"fleet.resize.calls", "count", "lower"},
	{"fleet.resize.wait_s", "s", "lower"},
	{"fleet.resize.denied", "count", "lower"},
	{"fleet.quiesce.calls", "count", "lower"},
	{"fleet.quiesce.wait_s", "s", "lower"},
	{"fleet.sched_round.calls", "count", "lower"},
	{"fleet.sched_round.self_s", "s", "lower"},
	{"fleet.sched_round.cross_moves", "count", "lower"},
	{"fleet.sched_round.defrag_moves", "count", "lower"},
	{"fleet.sched_round.copied_mib", "MiB", "lower"},
	{"fleet.sched_round.ms_per_move", "ms", "lower"},
	{"core.write_guest.calls", "count", "lower"},
	{"core.write_guest.self_s", "s", "lower"},
	{"core.write_guest.bytes", "B", "lower"},
	{"fleet.audit.calls", "count", "lower"},
	{"fleet.audit.self_s", "s", "lower"},
	{"serve.new.self_s", "s", "lower"},
	{"serve.run.self_s", "s", "lower"},
	{"serve.run.requests", "count", "lower"},
	{"serve.run.ns_per_request", "ns", "lower"},
	{"serve.run.windows", "count", "lower"},
	{"serve.run.sim_blackout_ms", "ms", "lower"},
	{"mitigation.observe.calls", "count", "lower"},
	{"mitigation.observe.self_s", "s", "lower"},
	{"mitigation.observe.ns_per_call", "ns", "lower"},
	{"mitigation.observe.refreshes", "count", "lower"},
	{"core.boot.calls", "count", "lower"},
	{"core.boot.self_s", "s", "lower"},
	{"attack.fuzzer.self_s", "s", "lower"},
	{"attack.hammer.calls", "count", "lower"},
	{"attack.hammer.self_s", "s", "lower"},
	{"attack.hammer.ns_per_act", "ns", "lower"},
	{"attack.fill.calls", "count", "lower"},
	{"attack.fill.self_s", "s", "lower"},
	{"attack.check.calls", "count", "lower"},
	{"attack.check.self_s", "s", "lower"},
	{"attack.end_window.calls", "count", "lower"},
	{"attack.end_window.self_s", "s", "lower"},
	{"dram.acts", "count", "lower"},
	{"mitigation.trr_refreshes", "count", "lower"},
	{"attack.flips_per_macts", "flips/Mact", "lower"},
	{"sim_ns_per_access", "ns", "lower"},
	{"sim_p50_us", "us", "lower"},
	{"sim_p99_us", "us", "lower"},
	{"sim_slo_miss_frac", "frac", "lower"},
	{"sim_admitted_frac", "frac", "higher"},
	{"sim_downtime_ms", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// tailLadder lists the percentiles op_tail_ms may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

type tailInfo struct {
	pct       float64
	n, beyond int
	value     float64
}

// quantile is the nearest-rank p-th percentile of sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail returns the highest ladder percentile that would have at least ten
// of nMin samples beyond it (p50 when even that would not). Choosing the
// rung from the run's guaranteed sample count, not the actual one, keeps
// one percentile per workload however many iterations a run fits in.
func tail(sorted []float64, nMin int) tailInfo {
	n := len(sorted)
	for _, p := range tailLadder {
		if nMin-int(math.Ceil(p/100*float64(nMin))) >= 10 || p == 50 {
			beyond := n - int(math.Ceil(p/100*float64(n)))
			return tailInfo{pct: p, n: n, beyond: beyond, value: quantile(sorted, p)}
		}
	}
	return tailInfo{}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd computes the end-to-end metrics from untraced iterations:
// medians over iterations, and latency percentiles over the pooled
// per-op samples. Times are process CPU time, which a busy neighbour on a
// shared host inflates far less than wall time, scaled per iteration to
// the reference host (hostspeed.go). The unscaled and wall-clock
// equivalents are returned for the manifest.
func endToEnd(iters []iteration) (map[string]float64, tailInfo) {
	var setup, cpu, rate, rawSetup, rawCPU, rawRate, wall, wallRate, alloc, lat []float64
	for _, it := range iters {
		f := it.scale()
		setup = append(setup, it.setup.Seconds()*f)
		cpu = append(cpu, it.cpu.Seconds()*f)
		rate = append(rate, float64(it.out.ops)/(it.cpu.Seconds()*f))
		rawSetup = append(rawSetup, it.setup.Seconds())
		rawCPU = append(rawCPU, it.cpu.Seconds())
		rawRate = append(rawRate, float64(it.out.ops)/it.cpu.Seconds())
		wall = append(wall, it.wall.Seconds())
		wallRate = append(wallRate, float64(it.out.ops)/it.wall.Seconds())
		alloc = append(alloc, float64(it.allocBytes)/(1<<20))
		for _, ms := range it.out.lat {
			lat = append(lat, ms*f)
		}
	}
	sort.Float64s(lat)
	t := tail(lat, minIters*len(iters[0].out.lat))
	return map[string]float64{
		"setup_s":        median(setup),
		"cpu_s":          median(cpu),
		"ops_per_s":      median(rate),
		"op_p50_ms":      quantile(lat, 50),
		"op_tail_ms":     t.value,
		"alloc_mib":      median(alloc),
		"peak_rss_mib":   peakRSSMiB(),
		"raw_setup_s":    median(rawSetup),
		"raw_cpu_s":      median(rawCPU),
		"raw_ops_per_s":  median(rawRate),
		"wall_s":         median(wall),
		"ops_per_wall_s": median(wallRate),
	}, t
}

// layerValues joins one traced iteration's span statistics with the
// program counts its workload reported.
func layerValues(it iteration) map[string]float64 {
	m := map[string]float64{}
	for k, v := range it.out.facts {
		m[k] = v
	}
	for k, v := range it.out.sim {
		m[k] = v
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for l := layer(0); l < numLayers; l++ {
		s := it.tr.Stat(l)
		name := l.String()
		m[name+".calls"] = float64(s.calls)
		m[name+".self_s"] = s.self.Seconds()
		m[name+".wait_s"] = s.busy.Seconds()
		m[name+".ns_per_call"] = per(float64(s.self.Nanoseconds()), float64(s.calls))
	}
	sched := it.tr.Stat(lSchedRound)
	m["fleet.sched_round.ms_per_move"] = per(float64(sched.busy.Microseconds())/1e3,
		m["fleet.sched_round.cross_moves"]+m["fleet.sched_round.defrag_moves"])
	m["serve.run.ns_per_request"] = per(float64(it.tr.Stat(lServeRun).busy.Nanoseconds()), m["serve.run.requests"])
	m["attack.hammer.ns_per_act"] = per(float64(it.tr.Stat(lHammer).self.Nanoseconds()), m["dram.acts"])
	return m
}

// layerMetrics takes the median of every per-layer value over the traced
// iterations, and the tracing overhead as the median ratio of each traced
// iteration's timed phase to the untraced run of the same input.
func layerMetrics(plain, traced []iteration) map[string]float64 {
	vals := map[string][]float64{}
	untraced := map[int]float64{}
	for _, it := range plain {
		untraced[it.k] = it.cpu.Seconds()
	}
	var ratios []float64
	for _, it := range traced {
		for k, v := range layerValues(it) {
			vals[k] = append(vals[k], v)
		}
		ratios = append(ratios, it.cpu.Seconds()/untraced[it.k])
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	out["trace_overhead_pct"] = 100 * (median(ratios) - 1)
	return out
}
