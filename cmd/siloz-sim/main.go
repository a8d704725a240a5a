// Command siloz-sim runs an end-to-end cloud scenario: boot a hypervisor,
// place tenant VMs, run a workload in one while another mounts a Rowhammer
// attack, and report both performance and containment.
//
// The victim workload repeats -reps times (each repetition on a fresh
// memory controller, seeded from -seed and the repetition index) and the
// repetitions fan out onto a -parallel wide worker pool; per-rep results
// print in index order, identical at any pool width.
//
// Usage:
//
//	siloz-sim [-mode siloz|baseline] [-tenants N] [-workload NAME]
//	          [-quick] [-seed N] [-ops N] [-reps N] [-parallel N]
//	          [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
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
	"repro/internal/memctrl"
	"repro/internal/workload"
)

func pickWorkload(name string) (workload.Workload, bool) {
	all := append(workload.AllYCSB(),
		workload.Terasort{}, workload.Memcached{}, workload.Sysbench{})
	all = append(all, workload.SPECSuite()...)
	all = append(all, workload.PARSECSuite()...)
	all = append(all, workload.AllMLC()...)
	for _, w := range all {
		if w.Name() == name {
			return w, true
		}
	}
	return nil, false
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("siloz-sim: ")
	modeFlag := flag.String("mode", "siloz", "hypervisor: siloz or baseline")
	tenants := flag.Int("tenants", 3, "number of tenant VMs (tenant 0 is the attacker)")
	vmGiB := flag.Int("vm-gib", 3, "memory per tenant in GiB")
	wname := flag.String("workload", "redis-a", "workload run by the victim tenant")
	patterns := flag.Int("patterns", 25, "attacker fuzzing patterns")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	mode := core.ModeSiloz
	if *modeFlag == "baseline" {
		mode = core.ModeBaseline
	}
	w, ok := pickWorkload(*wname)
	if !ok {
		log.Fatalf("unknown workload %q", *wname)
	}
	ops := 50_000
	if common.Quick {
		ops = 15_000
		*patterns = 10
	}
	if common.Ops > 0 {
		ops = common.Ops
	}
	reps := 1
	if common.Reps > 0 {
		reps = common.Reps
	}

	prof := dram.ProfileD()
	h, err := core.Boot(core.Config{
		Profiles:      []dram.Profile{prof},
		EPTProtection: ept.GuardRows,
	}, mode)
	if err != nil {
		log.Fatal(err)
	}
	proc := core.Process{CGroup: "kvm", KVMPrivileged: true}
	vms := make([]*core.VM, *tenants)
	for i := range vms {
		vms[i], err = h.CreateVM(proc, core.VMSpec{
			Name:   fmt.Sprintf("tenant%d", i),
			Socket: 0,
			// Spread across sockets if socket 0 fills up.
			MemoryBytes:   uint64(*vmGiB) * geometry.GiB,
			VCPUs:         4,
			MediatedBytes: 64 * geometry.KiB,
		})
		if err != nil {
			log.Fatalf("creating tenant %d: %v", i, err)
		}
	}
	fmt.Printf("booted %s with %d tenants x %d GiB on %s\n",
		h.Mode(), *tenants, *vmGiB, h.Layout().Geometry())

	// Victim runs the workload; repetitions fan out onto the pool and are
	// reported by index, so output is scheduling-independent.
	victim := vms[len(vms)-1]
	type repResult struct {
		res     memctrl.Result
		hitRate float64
	}
	results := make([]repResult, reps)
	pool := experiments.NewPool(common.Workers())
	err = pool.Map(context.Background(), reps, func(rep int) error {
		seed := experiments.RepSeed(common.Seed, rep)
		ctrl, err := memctrl.New(memctrl.Config{
			Mapper: h.Memory().Mapper(), Timing: memctrl.DDR4_2933(),
			MLPWindow: 10, JitterSeed: seed,
		})
		if err != nil {
			return err
		}
		cache, err := memctrl.NewCache(32*geometry.MiB, 16)
		if err != nil {
			return err
		}
		res, err := workload.RunOnVM(victim, ctrl, cache, w, ops, seed)
		if err != nil {
			return err
		}
		results[rep] = repResult{res: res, hitRate: cache.HitRate()}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for rep, r := range results {
		fmt.Printf("victim %s ran %s [rep %d]: %s (LLC hit %.1f%%)\n",
			victim.Name(), w.Name(), rep, r.res, 100*r.hitRate)
	}

	// Attacker fuzzes.
	fz := attack.NewFuzzer(attack.FuzzerConfig{
		Patterns:          *patterns,
		WindowsPerPattern: 2,
		MaxActsPerWindow:  prof.MaxActsPerWindow * 9 / 10,
		FillPattern:       0xAA,
		Seed:              common.Seed,
	})
	rep, err := fz.Run(&attack.VMTarget{VM: vms[0]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacker %s: %d/%d patterns effective, %d corruptions in its own memory\n",
		vms[0].Name(), rep.EffectivePatterns, rep.PatternsTried, len(rep.Corruptions))

	escaped := 0
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			log.Fatal(err)
		}
		if !(vms[0].OwnsHPA(pa) || vms[0].InDomain(pa)) {
			escaped++
		}
	}
	if escaped > 0 {
		fmt.Printf("RESULT: %d bit flips landed OUTSIDE the attacker's domain — co-located tenants corrupted\n", escaped)
		stopProfiles()
		os.Exit(1)
	}
	fmt.Println("RESULT: every bit flip stayed inside the attacker's own subarray groups")
}
