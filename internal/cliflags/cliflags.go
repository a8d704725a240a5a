// Package cliflags defines the flag vocabulary shared by every siloz
// command. All binaries spell the common knobs the same way with the same
// defaults:
//
//	-seed N      base RNG seed (per-rep streams derive from it)
//	-quick       scaled-down parameters for a fast pass
//	-ops N       operations per run (0 = command default)
//	-reps N      repetitions per configuration (0 = command default)
//	-parallel N  worker pool width (0 = GOMAXPROCS)
//	-cpuprofile FILE  write a CPU profile of the run to FILE
//	-memprofile FILE  write a heap profile to FILE at exit
//
// Commands register the set with Register, read the parsed values from the
// returned Common, and run the two profiles with StartProfiles. The package
// deliberately depends on nothing but the standard library so every cmd/
// binary can use it.
package cliflags

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Common holds the parsed values of the shared flags.
type Common struct {
	// Seed is the base RNG seed every derived stream starts from.
	Seed int64
	// Quick selects scaled-down experiment parameters.
	Quick bool
	// Ops overrides operations per run; 0 keeps the command's default.
	Ops int
	// Reps overrides repetitions per configuration; 0 keeps the default.
	Reps int
	// Parallel bounds the worker pool; 0 means GOMAXPROCS.
	Parallel int
	// CPUProfile names the file a CPU profile of the run goes to; "" = none.
	CPUProfile string
	// MemProfile names the file a heap profile goes to at exit; "" = none.
	MemProfile string
}

// Register installs the shared flags on fs with their canonical spellings
// and defaults, returning the struct the parsed values land in.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.Int64Var(&c.Seed, "seed", 1, "base RNG seed; per-rep streams derive from it")
	fs.BoolVar(&c.Quick, "quick", false, "scaled-down parameters for a fast pass")
	fs.IntVar(&c.Ops, "ops", 0, "operations per run (0 = command default)")
	fs.IntVar(&c.Reps, "reps", 0, "repetitions per configuration (0 = command default)")
	fs.IntVar(&c.Parallel, "parallel", 0, "worker pool width (0 = GOMAXPROCS)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	return c
}

// StartProfiles starts the CPU profile -cpuprofile asks for and returns the
// function that ends it and writes the heap profile -memprofile asks for.
// Call stop before the command exits; os.Exit and log.Fatal skip deferred
// calls, so exits on failing checks call it first. stop runs once however
// often it is called and reports failures through the log package. The
// profiles write only their named files, never stdout.
func (c *Common) StartProfiles() (stop func(), err error) {
	var cpu *os.File
	if c.CPUProfile != "" {
		if cpu, err = os.Create(c.CPUProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					log.Printf("writing CPU profile: %v", err)
				}
			}
			if c.MemProfile != "" {
				if err := writeHeapProfile(c.MemProfile); err != nil {
					log.Printf("writing heap profile: %v", err)
				}
			}
		})
	}, nil
}

// writeHeapProfile writes an up-to-date heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // fold the latest allocations into the profile
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Workers resolves -parallel to a concrete pool width.
func (c *Common) Workers() int {
	if c.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallel
}
