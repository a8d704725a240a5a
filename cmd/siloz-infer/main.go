// Command siloz-infer runs the mFIT-style subarray size inference of §4.1
// against a simulated DIMM: even without vendor cooperation, the true
// subarray size is revealed by the pattern of failed Rowhammer attacks at
// its multiples — the methodology Siloz's deployment relies on when DRAM
// vendors do not share subarray sizes.
//
// With -adjacency the command instead runs the attacker-side DRAMDig-style
// row-adjacency probe that precedes every lifecycle campaign: hammer a row
// believed to sit between two others and confirm the disturbance lands on
// exactly the predicted neighbors. Subarray-size inference needs boundary-
// spanning runs and is host-only; adjacency is what an in-VM attacker can
// confirm.
//
// The common flags are spelled as in every siloz command: -quick probes the
// minimum two boundaries per candidate, -ops overrides activations per
// aggressor, and
// -reps re-runs the inference on -parallel-pooled independent DIMMs (the
// size probe is deterministic, so -seed only varies -adjacency sampling).
//
// Usage:
//
//	siloz-infer [-true-size N] [-dimm A..F] [-adjacency] [-pairs N]
//	            [-quick] [-ops N] [-reps N] [-seed N] [-parallel N]
//	            [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/cliflags"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/geometry"
)

// infer builds a fresh simulated DIMM and runs one inference pass.
func infer(g geometry.Geometry, prof dram.Profile, cfg attack.InferenceConfig) (int, error) {
	mapper, err := addr.NewMapper(g, addr.KindSkylake)
	if err != nil {
		return 0, err
	}
	mem, err := dram.NewMemory(g, mapper, []dram.Profile{prof}, nil)
	if err != nil {
		return 0, err
	}
	target := &attack.PhysTarget{
		Mem:    mem,
		Ranges: []attack.PhysRange{{Start: 0, End: uint64(g.SocketBytes())}},
	}
	return attack.InferSubarraySize(target, cfg)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("siloz-infer: ")
	trueSize := flag.Int("true-size", 1024, "actual rows per subarray of the simulated DIMM")
	dimm := flag.String("dimm", "A", "DIMM profile (A-F)")
	adjacency := flag.Bool("adjacency", false, "run attacker-side row-adjacency inference instead of subarray size")
	pairs := flag.Int("pairs", 8, "aggressor triples to probe per rep in -adjacency mode")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	var prof dram.Profile
	found := false
	for _, p := range dram.EvaluationProfiles() {
		if p.Name == *dimm {
			prof, found = p, true
		}
	}
	if !found {
		log.Fatalf("unknown DIMM %q", *dimm)
	}
	// Give the probe a fully-vulnerable part so every boundary probe is
	// conclusive (real mFIT retries more boundaries instead).
	prof.VulnerableRowFraction = 1

	g := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 8192, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: *trueSize,
	}
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}
	if *adjacency {
		acts := int(4 * prof.HammerThreshold)
		if common.Ops > 0 {
			acts = common.Ops
		}
		reps := 1
		if common.Reps > 0 {
			reps = common.Reps
		}
		fmt.Printf("probing DIMM %s row adjacency (%d triples/rep, %d acts)...\n",
			prof.Name, *pairs, acts)
		reports := make([]*attack.AdjacencyReport, reps)
		pool := experiments.NewPool(common.Workers())
		err := pool.Map(context.Background(), reps, func(i int) error {
			mapper, err := addr.NewMapper(g, addr.KindSkylake)
			if err != nil {
				return err
			}
			mem, err := dram.NewMemory(g, mapper, []dram.Profile{prof}, nil)
			if err != nil {
				return err
			}
			target := &attack.PhysTarget{
				Mem:    mem,
				Ranges: []attack.PhysRange{{Start: 0, End: uint64(g.SocketBytes())}},
			}
			rep, err := attack.InferAdjacency(target, acts, *pairs, 0xAA, attack.CampaignSeed(common.Seed, i))
			if err != nil {
				return err
			}
			reports[i] = rep
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		confirmed := true
		for i, rep := range reports {
			fmt.Printf("rep %d: %d/%d neighbor pairs disturbed, row pitch %d\n",
				i, rep.Confirmed, rep.Probed, rep.RowPitch)
			confirmed = confirmed && rep.Confirmed > 0
		}
		if confirmed {
			fmt.Println("RESULT: adjacency confirmed — the mapping hypothesis places neighbors correctly")
		} else {
			fmt.Println("RESULT: adjacency NOT confirmed")
			stopProfiles()
			os.Exit(1)
		}
		return
	}

	cfg := attack.DefaultInferenceConfig()
	if prof.TRRTableSize == 0 {
		cfg.Decoys = 0
	}
	if common.Quick {
		// Two probes is the floor: the inference demands at least two
		// conclusive boundary samples before accepting a candidate.
		cfg.ProbesPerCandidate = 2
	}
	if common.Ops > 0 {
		cfg.ActsPerAggressor = common.Ops
	}
	reps := 1
	if common.Reps > 0 {
		reps = common.Reps
	}

	fmt.Printf("probing DIMM %s (TRR table %d, threshold %.0f, transforms %+v)...\n",
		prof.Name, prof.TRRTableSize, prof.HammerThreshold, prof.Transforms)
	sizes := make([]int, reps)
	pool := experiments.NewPool(common.Workers())
	err = pool.Map(context.Background(), reps, func(i int) error {
		got, err := infer(g, prof, cfg)
		if err != nil {
			return err
		}
		sizes[i] = got
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	allCorrect := true
	for i, got := range sizes {
		fmt.Printf("rep %d inferred subarray size: %d rows (true: %d)\n", i, got, *trueSize)
		allCorrect = allCorrect && got == *trueSize
	}
	if allCorrect {
		fmt.Println("RESULT: correct — failed attacks observed at every multiple of the true size (§4.1)")
	} else {
		fmt.Println("RESULT: MISMATCH")
		stopProfiles()
		os.Exit(1)
	}
}
