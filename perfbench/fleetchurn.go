package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/geometry"
)

// fleet-churn: the fleet-churn experiment's loop for one placement policy,
// through public fleet calls. Every lifecycle op is submitted and waited
// on before the next, so with Workers=1 at most one host goroutine is
// busy at a time; per-host op order is the experiment's, so the simulated
// outcome is too (fleetchurn_test.go pins this).

// fleetChurnConfig is the churn trace the workload replays.
func fleetChurnConfig(seed int64) experiments.FleetConfig {
	return experiments.FleetConfig{
		Hosts:            2,
		Policies:         []string{"siloz-aware"},
		Rounds:           3,
		ArrivalsPerRound: 4,
		VMSizes: []uint64{
			64 * geometry.MiB, 96 * geometry.MiB,
			128 * geometry.MiB, 192 * geometry.MiB,
		},
		MinLifetime: 1,
		MaxLifetime: 3,
		ResizeProb:  0.5,
		TouchPages:  2,
		CopyGiBps:   12,
		Seed:        seed,
	}
}

// fleetLabGeometry is the fleet-churn experiment's per-host box: 8 subarray
// groups of 64 MiB per socket.
func fleetLabGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    8,
		RowsPerBank:     4096,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// labProfile is profile F without DRAM transforms, so subarray groups
// form without padding.
func labProfile() dram.Profile {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return p
}

// fleetTraceSeed fixes the arrival trace (the fleet-churn experiment's
// default seed). The workload seed drives the guest data each admitted VM
// stamps and the scheduler's dirty-page injection during moves, which set
// what every copy and scrub has to carry. A seeded trace would change how
// many VMs the scheduler moves, and with it host time by a factor of two
// or more between seeds, on a trace short enough to run several times in
// one benchmark run.
const fleetTraceSeed = 29

// traceConfig is cfg's arrival-trace shape, drawn with seed.
func traceConfig(cfg experiments.FleetConfig, seed int64) fleet.TraceConfig {
	return fleet.TraceConfig{
		Seed:             seed,
		Rounds:           cfg.Rounds,
		ArrivalsPerRound: cfg.ArrivalsPerRound,
		VMSizes:          cfg.VMSizes,
		MinLifetime:      cfg.MinLifetime,
		MaxLifetime:      cfg.MaxLifetime,
		ResizeProb:       cfg.ResizeProb,
	}
}

type fleetChurn struct {
	cfg     experiments.FleetConfig
	trace   []fleet.Arrival
	cluster *fleet.Cluster
	sched   *fleet.Scheduler
}

func setupFleetChurn(seed int64, tr *Tracer) (instance, error) {
	return newFleetChurn(fleetChurnConfig(seed), fleetTraceSeed, tr)
}

// newFleetChurn boots cfg's cluster for a trace drawn with traceSeed.
func newFleetChurn(cfg experiments.FleetConfig, traceSeed int64, tr *Tracer) (*fleetChurn, error) {
	policy, err := fleet.PolicyByName(cfg.Policies[0])
	if err != nil {
		return nil, err
	}
	tr.Begin(lBoot)
	cluster, err := fleet.New(fleet.Config{
		Hosts:     cfg.Hosts,
		Core:      core.Config{Geometry: fleetLabGeometry(), Profiles: []dram.Profile{labProfile()}},
		Policy:    policy,
		Workers:   1,
		CopyGiBps: cfg.CopyGiBps,
	})
	tr.End()
	if err != nil {
		return nil, err
	}
	return &fleetChurn{
		cfg:     cfg,
		trace:   fleet.GenerateTrace(traceConfig(cfg, traceSeed)),
		cluster: cluster,
		sched:   fleet.NewScheduler(cluster, fleet.SchedulerConfig{Seed: cfg.Seed}),
	}, nil
}

func (f *fleetChurn) close() { f.cluster.Close() }

// fleetTally is the churn run's outcome, in the experiment's terms.
type fleetTally struct {
	arrivals, admitted, refused, untypedRefusals int
	departs, resizes, resizeDenied               int
	crossMoves, defragMoves                      int
	auditRounds                                  int
	auditErr                                     error
	leftoverNodes                                int
	stampBytes                                   int64
	downtimeMs                                   float64
	migratedBytes                                uint64
}

func (f *fleetChurn) run(ctx context.Context, tr *Tracer) (*outcome, error) {
	out := &outcome{sim: map[string]float64{}, facts: map[string]float64{}}
	h64 := fnv.New64a()
	var lat fleetLat
	t, err := f.churn(ctx, tr, h64, &lat)
	out.lat = lat.ops
	if err != nil {
		return nil, err
	}
	out.ops = int64(t.admitted + t.refused + t.departs + t.resizes + t.crossMoves + t.defragMoves)
	out.failed = int64(t.untypedRefusals)
	fmt.Fprintf(h64, "final %d %d %d %d %d %d %d %x", t.admitted, t.refused, t.resizeDenied,
		t.crossMoves, t.defragMoves, t.leftoverNodes, t.migratedBytes, t.downtimeMs)
	out.digest = h64.Sum64()

	out.sim["sim_admitted_frac"] = float64(t.admitted) / float64(t.arrivals)
	out.sim["sim_downtime_ms"] = t.downtimeMs
	out.facts["fleet.admit.p50_ms"] = median(lat.admits)
	out.facts["fleet.admit.refused"] = float64(t.refused)
	out.facts["fleet.resize.denied"] = float64(t.resizeDenied)
	out.facts["fleet.sched_round.cross_moves"] = float64(t.crossMoves)
	out.facts["fleet.sched_round.defrag_moves"] = float64(t.defragMoves)
	out.facts["fleet.sched_round.copied_mib"] = float64(t.migratedBytes) / float64(geometry.MiB)
	out.facts["core.write_guest.bytes"] = float64(t.stampBytes)

	auditDetail := fmt.Sprintf("fleet.AuditIsolation passed after %d rounds and the drain", t.auditRounds)
	if t.auditErr != nil {
		auditDetail = t.auditErr.Error()
	}
	out.checks = append(out.checks,
		check{"fleet_audit_every_round", t.auditErr == nil, auditDetail},
		check{"fleet_trace_complete", t.admitted+t.refused == t.arrivals,
			fmt.Sprintf("admitted %d + refused %d = arrivals %d", t.admitted, t.refused, t.arrivals)},
		check{"fleet_typed_refusals", t.untypedRefusals == 0,
			fmt.Sprintf("%d of %d refusals match fleet.ErrNoPlacement", t.refused-t.untypedRefusals, t.refused)},
		check{"fleet_drained", t.leftoverNodes == 0,
			fmt.Sprintf("%d guest nodes still owned after the final drain", t.leftoverNodes)},
		check{"fleet_nonvacuous", t.admitted > 0 && t.resizes > 0 && t.crossMoves+t.defragMoves > 0,
			fmt.Sprintf("%d admitted, %d resizes, %d cross-host and %d defrag moves",
				t.admitted, t.resizes, t.crossMoves, t.defragMoves)},
	)
	return out, nil
}

// fleetLat holds host CPU times (ms): ops of every admission or refusal,
// departure and resize, admits of the Admit calls alone.
type fleetLat struct{ ops, admits []float64 }

// churn replays the trace: per round, departures, then arrivals (each
// admitted VM stamps TouchPages pages), then resizes, then the scheduler's
// rebalancing round and a fleet-wide audit; finally every VM departs.
func (f *fleetChurn) churn(ctx context.Context, tr *Tracer, h io.Writer, lat *fleetLat) (*fleetTally, error) {
	cfg, c := f.cfg, f.cluster
	t := &fleetTally{arrivals: len(f.trace)}
	arrivalsAt := map[int][]fleet.Arrival{}
	for _, a := range f.trace {
		arrivalsAt[a.Round] = append(arrivalsAt[a.Round], a)
	}
	departAt := map[int][]string{}
	resizeAt := map[int][]fleet.Arrival{}
	stampRng := rand.New(rand.NewSource(cfg.Seed + 1))
	stamp := make([]byte, 128)
	proc := core.Process{CGroup: "kvm", KVMPrivileged: true}

	// opStart and opEnd bracket one lifecycle op: its spans share an op
	// id, and its host CPU time is appended to lat.ops.
	var opID int64
	opStart := func() time.Duration {
		tr.Op(opID)
		opID++
		return cpuTime()
	}
	opEnd := func(t0 time.Duration) float64 {
		ms := cpuMsSince(t0)
		lat.ops = append(lat.ops, ms)
		return ms
	}

	depart := func(name string) error {
		t0 := opStart()
		tr.Begin(lDepart)
		op, err := c.SubmitDepart(name)
		if err == nil {
			err = op.Wait(ctx)
		}
		tr.End()
		opEnd(t0)
		if err != nil {
			return fmt.Errorf("depart %s: %w", name, err)
		}
		t.departs++
		return nil
	}
	quiesce := func() error {
		tr.Begin(lQuiesce)
		err := c.Quiesce(ctx)
		tr.End()
		return err
	}
	audit := func(when string) bool {
		tr.Begin(lAudit)
		err := c.AuditIsolation()
		tr.End()
		if err != nil {
			t.auditErr = fmt.Errorf("%s: %w", when, err)
			return false
		}
		return true
	}

	lastRound := cfg.Rounds + cfg.MaxLifetime
	for round := 0; round <= lastRound; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, name := range departAt[round] {
			if err := depart(name); err != nil {
				return nil, fmt.Errorf("round %d: %w", round, err)
			}
		}
		if err := quiesce(); err != nil {
			return nil, err
		}

		for _, a := range arrivalsAt[round] {
			t0 := opStart()
			tr.Begin(lAdmit)
			hostName, err := c.Admit(ctx, proc, core.VMSpec{
				Name:           a.Name,
				MemoryBytes:    a.Bytes,
				MinMemoryBytes: a.MinBytes,
				VCPUs:          1,
			})
			tr.End()
			lat.admits = append(lat.admits, opEnd(t0))
			if err != nil {
				t.refused++
				if !errors.Is(err, fleet.ErrNoPlacement) {
					t.untypedRefusals++
				}
				fmt.Fprintf(h, "refuse %s|", a.Name)
				continue
			}
			t.admitted++
			fmt.Fprintf(h, "admit %s %s|", a.Name, hostName)
			departAt[a.DepartRound] = append(departAt[a.DepartRound], a.Name)
			if a.ResizeRound >= 0 {
				resizeAt[a.ResizeRound] = append(resizeAt[a.ResizeRound], a)
			}
			host, err := c.Host(hostName)
			if err != nil {
				return nil, err
			}
			vm, ok := host.Hypervisor().VM(a.Name)
			if !ok {
				continue
			}
			pages := int(a.Bytes / geometry.PageSize2M)
			for p := 0; p < cfg.TouchPages && p < pages; p++ {
				stampRng.Read(stamp)
				tr.Begin(lWriteGuest)
				err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, stamp)
				tr.End()
				if err != nil {
					return nil, fmt.Errorf("stamp %s: %w", a.Name, err)
				}
				t.stampBytes += int64(len(stamp))
			}
		}

		// A denied resize (no adoptable capacity) is an outcome.
		for _, a := range resizeAt[round] {
			t0 := opStart()
			tr.Begin(lResize)
			op, err := c.SubmitResize(a.Name, a.ResizeBytes)
			if err == nil {
				err = op.Wait(ctx)
			}
			tr.End()
			opEnd(t0)
			t.resizes++
			if err != nil {
				t.resizeDenied++
			}
			fmt.Fprintf(h, "resize %s %v|", a.Name, err == nil)
		}
		if err := quiesce(); err != nil {
			return nil, err
		}

		// A scheduler round gets an op id but no latency sample: it is
		// not one lifecycle op but zero or more moves. Its time shows in
		// cpu_s and in fleet.sched_round.
		opStart()
		tr.Begin(lSchedRound)
		rep, err := f.sched.Round(ctx)
		tr.End()
		if err != nil {
			return nil, fmt.Errorf("round %d rebalance: %w", round, err)
		}
		t.crossMoves += rep.CrossMoves
		t.defragMoves += rep.DefragMoves
		fmt.Fprintf(h, "round %d %d %d %d %d %d %d|", round, rep.HotHosts, rep.CrossMoves,
			rep.CrossMoveBytes, rep.DowntimeBytes, rep.DefragMoves, rep.SkippedVMs)

		if !audit(fmt.Sprintf("round %d", round)) {
			return t, nil
		}
		t.auditRounds++
	}

	for _, name := range c.VMs() {
		if err := depart(name); err != nil {
			return nil, fmt.Errorf("final drain: %w", err)
		}
	}
	if err := quiesce(); err != nil {
		return nil, err
	}
	if !audit("final drain") {
		return t, nil
	}
	m, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	t.leftoverNodes = m.OwnedNodes
	st := c.Stats()
	t.migratedBytes = st.MigratedBytes
	t.downtimeMs = st.DowntimeMs(cfg.CopyGiBps)
	return t, nil
}
