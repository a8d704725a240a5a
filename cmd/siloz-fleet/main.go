// Command siloz-fleet runs the fleet-scale control-plane study: a
// multi-host cluster of Siloz hypervisors under a traced churn workload —
// VM arrivals, resizes, and departures — with admission bin-packing across
// subarray-group nodes, a migration scheduler draining hot hosts and
// defragmenting cold ones, and a fleet-wide isolation audit after every
// round. It is a thin front end over the `fleet-churn` experiment, so its
// output is byte-identical to `siloz-bench -exp fleet-churn` at any
// parallelism.
//
// Usage:
//
//	siloz-fleet [-hosts N] [-rounds N] [-arrivals N] [-policy NAME[,NAME...]]
//	            [-json] [-quick] [-seed N] [-parallel N] [-timeout D]
//	            [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("siloz-fleet: ")
	hosts := flag.Int("hosts", 0, "override simulated host count")
	rounds := flag.Int("rounds", 0, "override churn rounds")
	arrivals := flag.Int("arrivals", 0, "override VM arrivals per round")
	policy := flag.String("policy", "", "placement policies, comma-separated (default: all)")
	asJSON := flag.Bool("json", false, "emit a JSON document instead of text")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	fc := experiments.DefaultFleetConfig()
	if common.Quick {
		fc = experiments.QuickFleetConfig()
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			fc.Seed = common.Seed
		}
	})
	if *hosts > 0 {
		fc.Hosts = *hosts
	}
	if *rounds > 0 {
		fc.Rounds = *rounds
	}
	if *arrivals > 0 {
		fc.ArrivalsPerRound = *arrivals
	}
	if *policy != "" {
		fc.Policies = nil
		for _, name := range strings.Split(*policy, ",") {
			name = strings.TrimSpace(name)
			if _, err := fleet.PolicyByName(name); err != nil {
				log.Fatal(err)
			}
			fc.Policies = append(fc.Policies, name)
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
		Fleet: fc,
		Pool:  experiments.NewPool(common.Workers()),
	}
	e, ok := experiments.Get("fleet-churn")
	if !ok {
		log.Fatal("fleet-churn experiment not registered")
	}
	start := time.Now()
	r, err := e.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "==> %s (%.1fs)\n", r.Name, time.Since(start).Seconds())
	if *asJSON {
		out, err := experiments.RenderJSON(r)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(out)
	} else {
		fmt.Print(experiments.RenderText(r))
	}
	if !r.Passed() {
		stopProfiles()
		log.Fatal("fleet-churn has failing checks")
	}
}
