// Command siloz-serve runs the request-level serving study: multi-tenant
// open-loop KV serving against every deployable Rowhammer defense, in a
// quiet scenario and under control-plane churn (resize, cross-socket live
// migration, defragmentation mid-serving), reporting achieved QPS, latency
// percentiles, and SLO misses per defense. It is a thin front end over the
// `serving-slo` experiment, so its output is byte-identical to
// `siloz-bench -exp serving-slo` at any parallelism.
//
// Usage:
//
//	siloz-serve [-qps N] [-slo-us N] [-duration-ms N] [-defense NAME[,NAME...]]
//	            [-scenario NAME[,NAME...]] [-json] [-quick] [-seed N]
//	            [-reps N] [-parallel N] [-timeout D]
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
	"repro/internal/mitigation"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("siloz-serve: ")
	qps := flag.Float64("qps", 0, "override per-tenant open-loop arrival rate")
	sloUs := flag.Float64("slo-us", 0, "override the per-request latency SLO (microseconds)")
	durationMs := flag.Float64("duration-ms", 0, "override the virtual arrival horizon (milliseconds)")
	defense := flag.String("defense", "", "defense rows, comma-separated (default: all kinds)")
	scenario := flag.String("scenario", "", "scenarios, comma-separated from quiet,churn (default: both)")
	asJSON := flag.Bool("json", false, "emit a JSON document instead of text")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	sc := experiments.DefaultServingSLOConfig()
	if common.Quick {
		sc = experiments.QuickServingSLOConfig()
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			sc.Seed = common.Seed
		}
	})
	if common.Reps > 0 {
		sc.Reps = common.Reps
	}
	if *qps > 0 {
		sc.QPS = *qps
	}
	if *sloUs > 0 {
		sc.SLOUs = *sloUs
	}
	if *durationMs > 0 {
		sc.DurationMs = *durationMs
	}
	if *defense != "" {
		sc.Kinds = nil
		for _, name := range strings.Split(*defense, ",") {
			name = strings.TrimSpace(name)
			if _, err := mitigation.ParseKind(name); err != nil {
				log.Fatal(err)
			}
			sc.Kinds = append(sc.Kinds, name)
		}
	}
	if *scenario != "" {
		sc.Scenarios = nil
		for _, name := range strings.Split(*scenario, ",") {
			name = strings.TrimSpace(name)
			if name != "quiet" && name != "churn" {
				log.Fatalf("unknown scenario %q (want quiet or churn)", name)
			}
			sc.Scenarios = append(sc.Scenarios, name)
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
		ServingSLO: sc,
		Pool:       experiments.NewPool(common.Workers()),
	}
	e, ok := experiments.Get("serving-slo")
	if !ok {
		log.Fatal("serving-slo experiment not registered")
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
		log.Fatal("serving-slo has failing checks")
	}
}
