package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/memctrl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Seeds the benchmark documents: claims are tuned on the default seed and
// must also hold on the held-out one (README.md).
const (
	defaultSeed = 1
	heldOutSeed = 97
)

// TestGuestMixMatchesRunOnVM pins that both guest-mix runs compute
// exactly what workload.RunOnVM does on every stream and host: the
// untraced run, which is RunOnVM behind a counting generator, and the
// traced run's runStream, which calls translate, cache and controller
// itself so it can span them.
func TestGuestMixMatchesRunOnVM(t *testing.T) {
	trs := []*Tracer{nil, NewTracer(64)}
	var insts []*guestMix
	for _, tr := range trs {
		inst, err := setupGuestMix(defaultSeed, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		insts = append(insts, inst.(*guestMix))
	}
	ref := insts[0]
	for hi, h := range ref.hosts {
		for i, w := range ref.streams {
			ctrl, err := memctrl.New(memctrl.Config{
				Mapper:     h.vm.Hypervisor().Memory().Mapper(),
				Timing:     memctrl.DDR4_2933(),
				MLPWindow:  ref.cfg.MLPWindow,
				HomeSocket: h.vm.Spec().Socket,
				JitterSeed: ref.jitterSeed(hi, i),
			})
			if err != nil {
				t.Fatal(err)
			}
			var cache *memctrl.Cache
			if !bypassesCache(w) {
				if cache, err = memctrl.NewCache(gmLLCBytes, gmLLCWays); err != nil {
					t.Fatal(err)
				}
			}
			want, err := workload.RunOnVM(h.vm, ctrl, cache, w, ref.cfg.Ops, ref.streamSeed(i))
			if err != nil {
				t.Fatal(err)
			}
			for k, g := range insts {
				var cnt gmCounts
				var lat []float64
				got, err := g.runOne(hi, i, trs[k], &cnt, &lat)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s %s traced=%v:\n got %+v\nwant %+v", h.mode, w.Name(), trs[k] != nil, got, want)
				}
			}
		}
	}
}

// TestFleetChurnMatchesExperiment pins that the fleet-churn loop, which
// submits and waits on each op in turn, reaches the fleet-churn
// experiment's admitted, rejected and downtime numbers on the same config,
// seed and trace.
func TestFleetChurnMatchesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet-churn experiment")
	}
	cfg := fleetChurnConfig(defaultSeed)
	exp, ok := experiments.Get("fleet-churn")
	if !ok {
		t.Fatal("fleet-churn experiment not registered")
	}
	res, err := exp.Run(context.Background(), experiments.Config{Fleet: cfg, Pool: experiments.NewPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFleetChurn(cfg, cfg.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	var lat fleetLat
	tally, err := f.churn(context.Background(), nil, io.Discard, &lat)
	if err != nil {
		t.Fatal(err)
	}
	policy := cfg.Policies[0]
	for _, c := range []struct {
		scalar string
		got    float64
	}{
		{"fleet_admitted_" + policy, float64(tally.admitted)},
		{"fleet_rejected_" + policy, float64(tally.refused)},
		{"fleet_cross_moves_" + policy, float64(tally.crossMoves)},
		{"fleet_downtime_ms_" + policy, math.Round(tally.downtimeMs*100) / 100},
	} {
		want, err := res.Scalar(c.scalar)
		if err != nil {
			t.Fatal(err)
		}
		if c.got != want {
			t.Errorf("%s: benchmark %v, experiment %v", c.scalar, c.got, want)
		}
	}
	if tally.admitted == 0 || tally.crossMoves+tally.defragMoves == 0 {
		t.Errorf("vacuous churn: %+v", tally)
	}
}

// TestServeChurnMatchesExperiment pins that serve-churn, which rebuilds
// serving-slo's lab box, churn schedule and defense factory by hand,
// serves what the experiment's churn cells serve for the same rows, reps
// and seed: requests, SLO misses and p99 per defense row.
func TestServeChurnMatchesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving-slo experiment")
	}
	sc := experiments.DefaultServingSLOConfig()
	sc.Seed = defaultSeed
	sc.Scenarios = []string{"churn"}
	for _, k := range serveKinds {
		sc.Kinds = append(sc.Kinds, k.String())
	}
	exp, ok := experiments.Get("serving-slo")
	if !ok {
		t.Fatal("serving-slo experiment not registered")
	}
	res, err := exp.Run(context.Background(), experiments.Config{ServingSLO: sc, Pool: experiments.NewPool(1)})
	if err != nil {
		t.Fatal(err)
	}

	inst, err := setupServeChurn(defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveChurn)
	defer s.close()
	reps, err := s.serve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for ki, k := range serveKinds {
		hist := stats.NewHistogram()
		var requests, errs, violations int64
		for i, rep := range reps {
			if s.rows[i].kind != k {
				continue
			}
			hist.Merge(rep.Total)
			requests += rep.Requests
			errs += rep.Errors
			violations += rep.Violations
		}
		slug := func(name string) string { return "sslo_" + name + "_" + k.String() + "_churn" }
		for _, c := range []struct {
			scalar string
			got    float64
		}{
			{slug("p99_us"), round3(hist.P99() / 1e3)},
			{slug("miss_pct"), round3(100 * float64(violations) / float64(requests-errs))},
		} {
			want, err := res.Scalar(c.scalar)
			if err != nil {
				t.Fatal(err)
			}
			if c.got != want {
				t.Errorf("%s: benchmark %v, experiment %v", c.scalar, c.got, want)
			}
		}
		if got, want := requests, res.Rows[ki].Cells[2]; got != want {
			t.Errorf("%v requests: benchmark %v, experiment %v", k, got, want)
		}
	}
}

// round3 rounds as the experiments round their scalars.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// TestTracingNeutralAndHeldOutSeed runs every workload untraced and traced
// at the default and the held-out seed: the traced run must print the same
// sim_digest, and every correctness check must pass at both seeds.
func TestTracingNeutralAndHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for _, def := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			plain, err := runIteration(context.Background(), def, seed, false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", def.name, seed, err)
			}
			traced, err := runIteration(context.Background(), def, seed, true)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", def.name, seed, err)
			}
			if plain.out.digest != traced.out.digest {
				t.Errorf("%s seed %d: traced digest %016x != untraced %016x",
					def.name, seed, traced.out.digest, plain.out.digest)
			}
			for _, it := range []iteration{plain, traced} {
				for _, c := range it.out.checks {
					if !c.ok {
						t.Errorf("%s seed %d traced=%v: check %s failed: %s", def.name, seed, it.traced, c.name, c.detail)
					}
				}
				if it.out.failed != 0 {
					t.Errorf("%s seed %d: %d failed ops", def.name, seed, it.out.failed)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json's workloads and
// metric lists to what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		list  []struct{ Name, Unit, Better string }
		specs []metricSpec
	}{{b.EndToEnd, endToEndSpecs}, {b.PerLayer, perLayerSpecs}} {
		if len(c.list) != len(c.specs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.list), len(c.specs))
		}
		for i, m := range c.list {
			if s := c.specs[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, m, s)
			}
		}
	}
}
