package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/experiments"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// guest-mix: the Figures 4-7 measurement path. One Siloz host and one
// baseline host, one VM each; the same access streams run on both through
// VM.Translate -> Cache.Access -> Controller.DoTimed.

// guestMixStreams are the mix's streams: YCSB-A (zipfian, 50% writes)
// and YCSB-C with the LLC, spec-mcf pointer chasing with the LLC, and an
// MLC read/write stream that bypasses it. Each runs the same op count,
// QuickPerfConfig's Ops, as every workload of the Figures 4-7 experiments
// does.
func guestMixStreams() []workload.Workload {
	return []workload.Workload{
		workload.YCSB{Letter: 'a'},
		workload.YCSB{Letter: 'c'},
		workload.SPECSuite()[1], // spec-mcf
		workload.MLC{Mode: "1:1"},
	}
}

// bypassesCache reports whether w skips the LLC, as the perf experiments
// decide it (Intel MLC's non-temporal traffic).
func bypassesCache(w workload.Workload) bool {
	b, ok := w.(interface{ BypassesCache() bool })
	return ok && b.BypassesCache()
}

const (
	gmLLCBytes = 32 * geometry.MiB // the perf experiments' LLC
	gmLLCWays  = 16
	// gmBatch is how many consecutive accesses one latency sample spans.
	gmBatch = 4096
)

// gmHost is one booted host with its VM, the mapper its controllers use
// (traced when the run is), and one LLC per cached stream.
type gmHost struct {
	mode   core.Mode
	vm     *core.VM
	mapper addr.Mapper
	caches []*memctrl.Cache // per stream; nil for bypassing streams
}

type guestMix struct {
	seed    int64
	cfg     experiments.PerfConfig
	streams []workload.Workload
	hosts   []*gmHost
}

// bootGuestMixHost boots cfg's host in mode with one VM, as the perf
// experiments' bootWithVM does.
func bootGuestMixHost(cfg experiments.PerfConfig, mode core.Mode, tr *Tracer) (*core.VM, error) {
	tr.Begin(lBoot)
	h, err := core.Boot(core.Config{
		Geometry:      cfg.Geometry,
		Profiles:      []dram.Profile{dram.ProfileF()},
		EPTProtection: ept.GuardRows,
	}, mode)
	tr.End()
	if err != nil {
		return nil, err
	}
	return h.CreateVM(core.Process{KVMPrivileged: true}, core.VMSpec{
		Name:        "bench",
		Socket:      0,
		MemoryBytes: cfg.VMMemory,
		VCPUs:       cfg.Geometry.CoresPerSocket,
	})
}

func setupGuestMix(seed int64, tr *Tracer) (instance, error) {
	g := &guestMix{seed: seed, cfg: experiments.QuickPerfConfig(), streams: guestMixStreams()}
	for _, mode := range []core.Mode{core.ModeSiloz, core.ModeBaseline} {
		vm, err := bootGuestMixHost(g.cfg, mode, tr)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("%s host: %w", mode, err)
		}
		h := &gmHost{mode: mode, vm: vm}
		g.hosts = append(g.hosts, h)
		if h.mapper, err = wrapMapper(vm.Hypervisor().Memory().Mapper(), tr); err != nil {
			g.close()
			return nil, err
		}
		for _, w := range g.streams {
			var c *memctrl.Cache
			if !bypassesCache(w) {
				if c, err = memctrl.NewCache(gmLLCBytes, gmLLCWays); err != nil {
					g.close()
					return nil, err
				}
			}
			h.caches = append(h.caches, c)
		}
	}
	return g, nil
}

func (g *guestMix) close() {
	for _, h := range g.hosts {
		h.vm.Hypervisor().Shutdown()
	}
}

// streamSeed and jitterSeed derive a stream's access and timing-noise
// seeds from the workload seed.
func (g *guestMix) streamSeed(i int) int64 { return g.seed*1_000_003 + int64(i)*7919 }
func (g *guestMix) jitterSeed(hi, i int) int64 {
	return g.seed*92821 + int64(hi)*1009 + int64(i)*31 + 1
}

// gmCounts are the program counts a run reports.
type gmCounts struct {
	accesses, writes, translateErrs int64
	observedNs                      float64
}

// runOne issues stream i on host hi. Untraced, it is workload.RunOnVM
// itself, with the generator wrapped to count accesses and take one
// latency sample per gmBatch of them (appended to lat). Traced, it is
// runStream, which makes the same calls one layer at a time.
func (g *guestMix) runOne(hi, i int, tr *Tracer, cnt *gmCounts, lat *[]float64) (memctrl.Result, error) {
	h, w := g.hosts[hi], g.streams[i]
	ctrl, err := memctrl.New(memctrl.Config{
		Mapper:     h.mapper,
		Timing:     memctrl.DDR4_2933(),
		MLPWindow:  g.cfg.MLPWindow,
		HomeSocket: h.vm.Spec().Socket,
		JitterSeed: g.jitterSeed(hi, i),
	})
	if err != nil {
		return memctrl.Result{}, err
	}
	if tr == nil {
		sw := &sampledWorkload{Workload: w, cnt: cnt, lat: lat}
		return workload.RunOnVM(h.vm, ctrl, h.caches[i], sw, g.cfg.Ops, g.streamSeed(i))
	}
	return runStream(h.vm, ctrl, h.caches[i], w, g.cfg.Ops, g.streamSeed(i), tr, cnt)
}

func (g *guestMix) run(ctx context.Context, tr *Tracer) (*outcome, error) {
	out := &outcome{sim: map[string]float64{}, facts: map[string]float64{}}
	h64 := fnv.New64a()
	var cnt gmCounts
	var simNs float64
	var res memctrl.Result
	var cacheHits, cacheCalls int64
	for hi, h := range g.hosts {
		for i, w := range g.streams {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := g.runOne(hi, i, tr, &cnt, &out.lat)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", h.mode, w.Name(), err)
			}
			fmt.Fprintf(h64, "%s/%s %x %d %d %d %d %d %d %d %d|", h.mode, w.Name(),
				math.Float64bits(r.TotalNs), r.Accesses, r.Reads, r.Writes,
				r.RowHits, r.RowMisses, r.Bytes, r.PeakRowACTs, r.MitigationRefreshes)
			if c := h.caches[i]; c != nil {
				fmt.Fprintf(h64, "%d %d|", c.Hits(), c.Misses())
				cacheHits += c.Hits()
				cacheCalls += c.Hits() + c.Misses()
			}
			simNs += r.TotalNs
			res.Accesses += r.Accesses
			res.RowHits += r.RowHits
		}
	}
	out.ops = cnt.accesses
	out.digest = h64.Sum64()
	out.sim["sim_ns_per_access"] = simNs / float64(cnt.accesses)
	out.facts["workload.generate.accesses"] = float64(cnt.accesses)
	out.facts["workload.generate.write_frac"] = float64(cnt.writes) / float64(cnt.accesses)
	out.facts["core.translate.errors"] = float64(cnt.translateErrs)
	out.facts["memctrl.cache.hit_ratio"] = float64(cacheHits) / float64(cacheCalls)
	out.facts["memctrl.ctrl.row_hit_ratio"] = float64(res.RowHits) / float64(res.Accesses)
	out.facts["memctrl.ctrl.sim_latency_ns"] = cnt.observedNs / float64(res.Accesses)
	out.checks = append(out.checks, check{"guest_mix_nonvacuous", res.Accesses > 0 && cacheHits > 0,
		fmt.Sprintf("%d guest accesses, %d reached DRAM, %d LLC hits", cnt.accesses, res.Accesses, cacheHits)})
	return out, nil
}

// sampledWorkload forwards a workload's access stream unchanged, counting
// accesses and writes and appending the host CPU time per access of each
// gmBatch consecutive accesses to lat (ms).
type sampledWorkload struct {
	workload.Workload
	cnt *gmCounts
	lat *[]float64
}

func (s *sampledWorkload) Generate(region uint64, ops int, seed int64, emit func(workload.Access) bool) {
	n := 0
	batchStart := cpuTime()
	s.Workload.Generate(region, ops, seed, func(a workload.Access) bool {
		s.cnt.accesses++
		if a.Write {
			s.cnt.writes++
		}
		if n++; n == gmBatch {
			now := cpuTime()
			*s.lat = append(*s.lat, float64((now-batchStart).Nanoseconds())/gmBatch/1e6)
			batchStart, n = now, 0
		}
		return emit(a)
	})
}

// runStream issues one stream the way workload.Runner does (RunOnVM's
// loop), calling each layer directly so the traced run can put a span
// around every call. Cache hits fold their latency into the think time of
// the next DRAM access; trailing hit latency settles into the controller
// at the end. TestGuestMixMatchesRunOnVM pins it to RunOnVM.
func runStream(vm *core.VM, ctrl *memctrl.Controller, cache *memctrl.Cache, w workload.Workload,
	ops int, seed int64, tr *Tracer, cnt *gmCounts) (memctrl.Result, error) {
	region := vm.Spec().MemoryBytes
	var pendingThink float64
	var firstErr error
	emit := func(a workload.Access) bool {
		tr.Op(cnt.accesses)
		cnt.accesses++
		if a.Write {
			cnt.writes++
		}
		tr.Begin(lTranslate)
		hpa, err := vm.Translate(a.Offset % region)
		tr.End()
		if err != nil {
			cnt.translateErrs++
			firstErr = fmt.Errorf("translating %#x: %w", a.Offset, err)
			return false
		}
		if cache != nil {
			tr.Begin(lCache)
			hit := cache.Access(hpa)
			tr.End()
			if hit {
				pendingThink += a.ThinkNs + cache.HitNs
				return true
			}
		}
		tr.Begin(lCtrl)
		_, observed, err := ctrl.DoTimed(memctrl.Access{PA: hpa, Write: a.Write, ThinkNs: a.ThinkNs + pendingThink})
		tr.End()
		if err != nil {
			firstErr = fmt.Errorf("access %#x: %w", hpa, err)
			return false
		}
		cnt.observedNs += observed
		pendingThink = 0
		return true
	}
	tr.Begin(lGenerate)
	w.Generate(region, ops, seed, emit)
	tr.End()
	if pendingThink > 0 {
		ctrl.Idle(pendingThink)
	}
	return ctrl.Result(), firstErr
}
