// Command siloz-bench regenerates the paper's tables and figures (§7) by
// dispatching the experiment registry: every table and figure is an
// experiments.Experiment, scheduled onto a bounded worker pool that fans
// out both across experiments and across each experiment's repetitions.
// Results stream to stdout in registry order — bit-for-bit identical no
// matter the pool width — while progress and timing go to stderr.
//
// Run `siloz-bench -list` for the experiment names.
//
// Usage:
//
//	siloz-bench [-exp NAME[,NAME...]] [-json] [-quick] [-seed N] [-ops N]
//	            [-reps N] [-parallel N] [-timeout D] [-csv DIR] [-patterns N]
//	            [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("siloz-bench: ")
	exp := flag.String("exp", "all", "experiment: all, one name, or a comma-separated list")
	list := flag.Bool("list", false, "list experiment names and exit")
	asJSON := flag.Bool("json", false, "emit one JSON document per experiment instead of text")
	csvDir := flag.String("csv", "", "directory to also write per-experiment CSV files into")
	patterns := flag.Int("patterns", 0, "override fuzzing patterns per DIMM")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = none)")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	perf := experiments.DefaultPerfConfig()
	if common.Quick {
		perf = experiments.QuickPerfConfig()
	}
	perf.Seed = common.Seed
	if common.Ops > 0 {
		perf.Ops = common.Ops
	}
	if common.Reps > 0 {
		perf.Reps = common.Reps
	}
	sec := experiments.DefaultSecurityConfig()
	mig := experiments.DefaultMigrationConfig()
	bal := experiments.DefaultBalloonConfig()
	hot := experiments.DefaultHotplugConfig()
	rel := experiments.DefaultEPTRelocConfig()
	fl := experiments.DefaultFleetConfig()
	lca := experiments.DefaultLifecycleAttackConfig()
	mat := experiments.DefaultMitigationMatrixConfig()
	sslo := experiments.DefaultServingSLOConfig()
	if common.Quick {
		mig = experiments.QuickMigrationConfig()
		bal = experiments.QuickBalloonConfig()
		hot = experiments.QuickHotplugConfig()
		rel = experiments.QuickEPTRelocConfig()
		fl = experiments.QuickFleetConfig()
		lca = experiments.QuickLifecycleAttackConfig()
		mat = experiments.QuickMitigationMatrixConfig()
		sslo = experiments.QuickServingSLOConfig()
	}
	// The security, migration, ballooning and hotplug campaigns keep their
	// own default seeds unless -seed is given explicitly, so default outputs
	// match earlier releases.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			sec.Seed = common.Seed
			mig.Seed = common.Seed
			bal.Seed = common.Seed
			hot.Seed = common.Seed
			rel.Seed = common.Seed
			fl.Seed = common.Seed
			lca.Seed = common.Seed
			mat.Seed = common.Seed
			sslo.Seed = common.Seed
		}
	})
	if *patterns > 0 {
		sec.Patterns = *patterns
	}

	var exps []experiments.Experiment
	if *exp == "all" {
		exps = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			e, ok := experiments.Get(name)
			if !ok {
				log.Fatalf("unknown experiment %q (run -list for names)", name)
			}
			exps = append(exps, e)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := experiments.Config{
		Perf:       perf,
		Security:   sec,
		Migration:  mig,
		Balloon:    bal,
		Hotplug:    hot,
		EPTReloc:   rel,
		Fleet:      fl,
		Lifecycle:  lca,
		Matrix:     mat,
		ServingSLO: sslo,
		Pool:       experiments.NewPool(common.Workers()),
	}

	failed := 0
	onDone := func(r *experiments.Result, elapsed time.Duration) {
		fmt.Fprintf(os.Stderr, "==> %s (%.1fs)\n", r.Name, elapsed.Seconds())
		if *asJSON {
			out, err := experiments.RenderJSON(r)
			if err != nil {
				log.Fatal(err)
			}
			os.Stdout.Write(out)
		} else {
			fmt.Print(experiments.RenderText(r))
			fmt.Println()
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, r.Name+".csv")
			if err := os.WriteFile(path, []byte(experiments.RenderCSV(r)), 0o644); err != nil {
				log.Fatalf("writing %s: %v", path, err)
			}
			fmt.Fprintf(os.Stderr, "    wrote %s\n", path)
		}
		if !r.Passed() {
			failed++
		}
	}
	start := time.Now()
	if _, err := experiments.RunAll(ctx, exps, cfg, onDone); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "done: %d experiments in %.1fs (parallel=%d)\n",
		len(exps), time.Since(start).Seconds(), cfg.Pool.Width())
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d experiment(s) have failing checks\n", failed)
	}
}
