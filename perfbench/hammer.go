package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/subarray"
)

// hammer: Table 3. A Blacksmith fuzzing campaign (attack.Fuzzer.Run) pinned
// to one Siloz subarray group per DIMM profile A-F, each on its own booted
// paper-geometry machine with the profile's in-DRAM TRR. Every flip is
// classified as inside or outside the attacker's group.

const (
	hammerPatterns = 48
	hammerWindows  = 1
)

// hammerShard is one DIMM profile's machine and campaign.
type hammerShard struct {
	prof   dram.Profile
	mem    *dram.Memory
	grp    *subarray.Group
	target *attack.PhysTarget
	cfg    attack.FuzzerConfig
}

type hammer struct {
	shards []*hammerShard
	hvs    []*core.Hypervisor
}

// setupHammer boots every shard machine before the timed phase, as
// table3's per-shard newTarget does for its first bank campaign.
func setupHammer(seed int64, tr *Tracer) (instance, error) {
	g := geometry.Default()
	hm := &hammer{}
	for dimmIdx, prof := range dram.EvaluationProfiles() {
		tr.Begin(lBoot)
		h, err := core.Boot(core.Config{
			Geometry:      g,
			Profiles:      []dram.Profile{prof},
			EPTProtection: ept.GuardRows,
		}, core.ModeSiloz)
		tr.End()
		if err != nil {
			hm.close()
			return nil, fmt.Errorf("profile %s: %w", prof.Name, err)
		}
		hm.hvs = append(hm.hvs, h)
		grp := h.Layout().Group(0, 1+dimmIdx%(h.Layout().GroupsPerSocket()-1))
		var ranges []attack.PhysRange
		for _, r := range grp.Ranges {
			ranges = append(ranges, attack.PhysRange{Start: r.Start, End: r.End})
		}
		hm.shards = append(hm.shards, &hammerShard{
			prof: prof,
			mem:  h.Memory(),
			grp:  grp,
			target: &attack.PhysTarget{
				Mem:       h.Memory(),
				Ranges:    ranges,
				BankIndex: dimmIdx % g.DIMMsPerSocket * g.BanksPerDIMM(), // rank 0, bank 0
			},
			cfg: attack.FuzzerConfig{
				Patterns:          hammerPatterns,
				WindowsPerPattern: hammerWindows,
				MaxActsPerWindow:  prof.MaxActsPerWindow * 9 / 10,
				FillPattern:       0xAA,
				Seed:              seed + int64(dimmIdx)*17,
			},
		})
	}
	return hm, nil
}

func (hm *hammer) close() {
	for _, h := range hm.hvs {
		h.Shutdown()
	}
}

func (hm *hammer) run(ctx context.Context, tr *Tracer) (*outcome, error) {
	out := &outcome{sim: map[string]float64{}, facts: map[string]float64{}}
	h64 := fnv.New64a()
	var acts, trrRefreshes int64
	inside, outside := 0, 0
	var patterns int64
	for _, s := range hm.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acts0 := s.mem.TotalActivations()
		trr0 := s.mem.DefenseOverhead().NeighborRefreshes
		var last time.Duration
		ft := &fuzzTarget{t: s.target, tr: tr}
		ft.onPattern = func() {
			now := cpuTime()
			if last != 0 {
				out.lat = append(out.lat, float64((now-last).Nanoseconds())/1e6)
			}
			last = now
			tr.Op(patterns)
			patterns++
		}
		tr.Begin(lFuzzer)
		rep, err := attack.NewFuzzer(s.cfg).Run(ft)
		tr.End()
		if last != 0 {
			out.lat = append(out.lat, cpuMsSince(last))
		}
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", s.prof.Name, err)
		}
		acts += s.mem.TotalActivations() - acts0
		trrRefreshes += int64(s.mem.DefenseOverhead().NeighborRefreshes - trr0)
		fmt.Fprintf(h64, "%s %d %d %d %q|", s.prof.Name, rep.PatternsTried, rep.EffectivePatterns,
			len(rep.Corruptions), rep.BestPattern)
		for _, f := range s.mem.Flips() {
			pa, err := s.mem.FlipPhys(f)
			if err != nil {
				return nil, err
			}
			if s.grp.Contains(pa) {
				inside++
			} else {
				outside++
			}
			fmt.Fprintf(h64, "%x ", pa)
		}
	}
	out.ops = acts
	out.digest = h64.Sum64()
	out.facts["dram.acts"] = float64(acts)
	out.facts["mitigation.trr_refreshes"] = float64(trrRefreshes)
	out.facts["attack.flips_per_macts"] = float64(inside+outside) / (float64(acts) / 1e6)
	out.checks = append(out.checks,
		check{"hammer_contained", outside == 0,
			fmt.Sprintf("%d flips outside the attacker's subarray groups", outside)},
		check{"hammer_effective", inside > 0,
			fmt.Sprintf("%d flips inside the attacker's subarray groups over %d activations", inside, acts)},
	)
	return out, nil
}
