// Command siloz-blacksmith runs the extended Blacksmith Rowhammer fuzzer
// (§7) from inside a tenant VM against a Siloz or baseline hypervisor, then
// reports both the attacker's view (corruptions it can read back) and the
// omniscient ground truth (where every bit flip physically landed).
//
// With -reps N the whole campaign repeats N times on independent
// hypervisors, each seeded from -seed and the repetition index; the
// repetitions fan out onto a -parallel wide worker pool and report in
// index order, identical at any pool width.
//
// Usage:
//
//	siloz-blacksmith [-mode siloz|baseline] [-mitigation kind] [-dimm A..F]
//	                 [-patterns N] [-quick] [-seed N] [-ops N] [-reps N]
//	                 [-parallel N] [-json] [-cpuprofile FILE] [-memprofile FILE]
//
// With -mitigation, the machine deploys the named Rowhammer defense (none,
// para, silver-bullet, catt, siloz) and the hypervisor mode follows it; the
// report gains the defense's overhead ledger, and flips absorbed by guard
// capacity count as contained.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/attack"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/experiments"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// jsonReport is the machine-readable campaign summary (-json), one per rep.
type jsonReport struct {
	Mode              string `json:"mode"`
	Mitigation        string `json:"mitigation,omitempty"`
	DIMM              string `json:"dimm"`
	Rep               int    `json:"rep"`
	Seed              int64  `json:"seed"`
	PatternsTried     int    `json:"patterns_tried"`
	EffectivePatterns int    `json:"effective_patterns"`
	Corruptions       int    `json:"corruptions"`
	BestPattern       string `json:"best_pattern,omitempty"`
	FlipsInAttacker   int    `json:"flips_in_attacker"`
	FlipsInVictim     int    `json:"flips_in_victim"`
	FlipsInGuards     int    `json:"flips_in_guards,omitempty"`
	FlipsElsewhere    int    `json:"flips_elsewhere"`
	Contained         bool   `json:"contained"`
	Refreshes         int    `json:"refreshes,omitempty"`
	BlockedMiB        uint64 `json:"blocked_mib,omitempty"`
}

// campaign boots a fresh hypervisor, fuzzes from the attacker VM, and
// classifies every flip. Each repetition is fully independent, which is
// what makes fanning reps across the pool safe.
func campaign(mode core.Mode, spec *mitigation.Spec, prof dram.Profile, vmGiB, patterns, windows, maxActs int, seed int64) (jsonReport, error) {
	rep := jsonReport{Mode: mode.String(), DIMM: prof.Name, Seed: seed}
	cc := core.Config{
		Profiles:      []dram.Profile{prof},
		EPTProtection: ept.GuardRows,
	}
	var h *core.Hypervisor
	var err error
	if spec != nil {
		// The deployed defense decides the hypervisor mode.
		cc.Mitigation = *spec
		h, err = core.BootMitigated(cc)
	} else {
		h, err = core.Boot(cc, mode)
	}
	if err != nil {
		return rep, err
	}
	if spec != nil {
		rep.Mode = h.Mode().String()
		rep.Mitigation = spec.Name()
	}
	proc := core.Process{CGroup: "kvm", KVMPrivileged: true}
	attacker, err := h.CreateVM(proc, core.VMSpec{
		Name: "attacker", Socket: 0, MemoryBytes: uint64(vmGiB) * geometry.GiB,
	})
	if err != nil {
		return rep, err
	}
	victim, err := h.CreateVM(proc, core.VMSpec{
		Name: "victim", Socket: 0, MemoryBytes: uint64(vmGiB) * geometry.GiB,
	})
	if err != nil {
		return rep, err
	}
	fz := attack.NewFuzzer(attack.FuzzerConfig{
		Patterns:          patterns,
		WindowsPerPattern: windows,
		MaxActsPerWindow:  maxActs,
		FillPattern:       0xAA,
		Seed:              seed,
	})
	target := attack.Target(&attack.VMTarget{VM: attacker})
	if spec != nil && spec.HasRowDefense() {
		// Defended controllers observe individual ACT commands; chunk the
		// fuzzer's bursts so the defense gets its real reaction window.
		target = attack.Chunked(target, 1000)
	}
	fr, err := fz.Run(target)
	if err != nil {
		return rep, err
	}
	rep.PatternsTried = fr.PatternsTried
	rep.EffectivePatterns = fr.EffectivePatterns
	rep.Corruptions = len(fr.Corruptions)
	rep.BestPattern = fr.BestPattern
	guard := map[uint64]bool{}
	for _, vm := range []*core.VM{attacker, victim} {
		for _, pa := range vm.GuardPages() {
			guard[pa] = true
		}
	}
	offlined := h.OfflinedRanges()
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			return rep, err
		}
		switch {
		case attacker.OwnsHPA(pa) || attacker.InDomain(pa):
			rep.FlipsInAttacker++
		case victim.OwnsHPA(pa) || victim.InDomain(pa):
			rep.FlipsInVictim++
		case guard[pa&^uint64(geometry.PageSize2M-1)]:
			rep.FlipsInGuards++
		default:
			absorbed := false
			for _, r := range offlined {
				if r.Contains(pa) {
					absorbed = true
					break
				}
			}
			if absorbed {
				rep.FlipsInGuards++
			} else {
				rep.FlipsElsewhere++
			}
		}
	}
	rep.Contained = rep.FlipsInVictim+rep.FlipsElsewhere == 0
	ov := h.Memory().DefenseOverhead()
	rep.Refreshes = ov.NeighborRefreshes
	rep.BlockedMiB = (h.MitigationBlockedBytes() + ov.BlockedBytes) / geometry.MiB
	return rep, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("siloz-blacksmith: ")
	modeFlag := flag.String("mode", "siloz", "hypervisor under attack: siloz or baseline")
	mitFlag := flag.String("mitigation", "", "deploy a Rowhammer defense instead of -mode: none, para, silver-bullet, catt, or siloz")
	dimm := flag.String("dimm", "A", "DIMM profile to populate the server with (A-F)")
	patterns := flag.Int("patterns", 40, "fuzzing patterns to try")
	windows := flag.Int("windows", 2, "refresh windows hammered per pattern")
	vmGiB := flag.Int("vm-gib", 6, "attacker VM memory in GiB")
	asJSON := flag.Bool("json", false, "emit a machine-readable JSON report per rep")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	mode := core.ModeSiloz
	switch *modeFlag {
	case "siloz":
	case "baseline":
		mode = core.ModeBaseline
	default:
		log.Fatalf("unknown mode %q", *modeFlag)
	}
	var spec *mitigation.Spec
	if *mitFlag != "" {
		k, err := mitigation.ParseKind(*mitFlag)
		if err != nil {
			log.Fatal(err)
		}
		spec = &mitigation.Spec{Kind: k, Seed: common.Seed}
		// The defense decides the mode (core.BootMitigated); keep the
		// banner honest.
		if spec.IsolatesSubarrayGroups() {
			mode = core.ModeSiloz
		} else {
			mode = core.ModeBaseline
		}
	}
	var prof dram.Profile
	found := false
	for _, p := range dram.EvaluationProfiles() {
		if p.Name == *dimm {
			prof, found = p, true
		}
	}
	if !found {
		log.Fatalf("unknown DIMM %q (want A-F)", *dimm)
	}

	if common.Quick {
		*patterns = 10
		*windows = 1
	}
	// -ops overrides the hammer budget per refresh window.
	maxActs := prof.MaxActsPerWindow * 9 / 10
	if common.Ops > 0 {
		maxActs = common.Ops
	}
	reps := 1
	if common.Reps > 0 {
		reps = common.Reps
	}

	if !*asJSON {
		deployed := "no mitigation"
		if spec != nil {
			deployed = "mitigation " + spec.Name()
		}
		fmt.Printf("hypervisor: %s, %s, DIMM profile %s, attacker VM %d GiB, victim VM %d GiB, %d rep(s)\n",
			mode, deployed, prof.Name, *vmGiB, *vmGiB, reps)
	}

	reports := make([]jsonReport, reps)
	pool := experiments.NewPool(common.Workers())
	err = pool.Map(context.Background(), reps, func(i int) error {
		rep, err := campaign(mode, spec, prof, *vmGiB, *patterns, *windows, maxActs,
			experiments.RepSeed(common.Seed, i))
		if err != nil {
			return err
		}
		rep.Rep = i
		reports[i] = rep
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	contained := true
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, rep := range reports {
		if *asJSON {
			if err := enc.Encode(rep); err != nil {
				log.Fatal(err)
			}
		} else {
			fmt.Printf("rep %d attacker view: %d/%d patterns effective, %d corruptions observed (first: %s)\n",
				rep.Rep, rep.EffectivePatterns, rep.PatternsTried, rep.Corruptions, rep.BestPattern)
			fmt.Printf("rep %d ground truth:  %d flips in attacker domain, %d in victim, %d in guard capacity, %d elsewhere (host)\n",
				rep.Rep, rep.FlipsInAttacker, rep.FlipsInVictim, rep.FlipsInGuards, rep.FlipsElsewhere)
			if rep.Mitigation != "" {
				fmt.Printf("rep %d overhead:      %d defense refreshes, %d MiB capacity blocked\n",
					rep.Rep, rep.Refreshes, rep.BlockedMiB)
			}
		}
		contained = contained && rep.Contained
	}
	if !contained {
		if !*asJSON {
			fmt.Println("RESULT: inter-VM Rowhammer SUCCEEDED — isolation violated")
		}
		stopProfiles()
		os.Exit(1)
	}
	if !*asJSON {
		if spec != nil {
			fmt.Println("RESULT: all flips contained to the attacker's own memory and sacrificial guard capacity")
		} else {
			fmt.Println("RESULT: all flips contained to the attacker's own subarray groups")
		}
	}
}
