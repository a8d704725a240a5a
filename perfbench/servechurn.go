package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/experiments"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/serve"
	"repro/internal/stats"
)

// serve-churn: the churn scenario of the serving-slo experiment for two
// defense rows. Two open-loop tenants (one per socket) serve zipfian KV
// requests at a fixed rate in virtual time under a 100 µs SLO while the
// control plane shrinks, regrows, migrates and defragments tenant t0.

var serveKinds = []mitigation.Kind{mitigation.KindSiloz, mitigation.KindSilverBullet}

// serveLabConfig is the lifecycle lab box: migrationLabGeometry with a
// fully vulnerable, transform-free profile and guard-row EPT protection.
func serveLabConfig() core.Config {
	g := fleetLabGeometry()
	g.RowsPerBank = 2048
	p := labProfile()
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 600
	p.HammerThreshold = 5000
	return core.Config{Geometry: g, Profiles: []dram.Profile{p}, EPTProtection: ept.GuardRows}
}

// serveChurnSchedule is serving-slo's churn schedule: shrink t0, grow it
// back, live-migrate it cross-socket, then defragment its host.
func serveChurnSchedule(durationNs float64) []serve.Event {
	return []serve.Event{
		{AtNs: 0.20 * durationNs, Kind: serve.EventResize, Tenant: "t0", TargetBytes: 32 * geometry.MiB},
		{AtNs: 0.45 * durationNs, Kind: serve.EventResize, Tenant: "t0", TargetBytes: 64 * geometry.MiB},
		{AtNs: 0.70 * durationNs, Kind: serve.EventMigrate, Tenant: "t0", DestSocket: 1, DirtyPages: 4},
		{AtNs: 0.85 * durationNs, Kind: serve.EventDefrag, Tenant: "t0", MaxMoves: 2},
	}
}

// serveRow is one defense row, set up and ready to serve.
type serveRow struct {
	kind mitigation.Kind
	hv   *core.Hypervisor
	loop *serve.Loop
	// mits are the row's controller-side defense instances (traced or
	// not), read back for their refresh counts.
	mits []mitigation.Mitigation
}

type serveChurn struct {
	rows []*serveRow
}

func setupServeChurn(seed int64, tr *Tracer) (instance, error) {
	s := &serveChurn{}
	// serving-slo's default cells: two reps per row, each serving 10
	// virtual ms at 150k QPS per tenant under a 100 µs SLO.
	sc := experiments.DefaultServingSLOConfig()
	// Rows and their seeds follow serving-slo's cell order for a churn
	// column: kind-major, then rep.
	for ki, kind := range serveKinds {
		for rep := 0; rep < sc.Reps; rep++ {
			row, err := setupServeRow(sc, kind, experiments.RepSeed(seed, ki*sc.Reps+rep), tr)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("%v rep %d: %w", kind, rep, err)
			}
			s.rows = append(s.rows, row)
		}
	}
	return s, nil
}

func setupServeRow(sc experiments.ServingSLOConfig, kind mitigation.Kind, seed int64, tr *Tracer) (*serveRow, error) {
	lab := serveLabConfig()
	lab.Mitigation = mitigation.Spec{Kind: kind, Seed: seed}
	tr.Begin(lBoot)
	h, err := core.BootMitigated(lab)
	tr.End()
	if err != nil {
		return nil, err
	}
	row := &serveRow{kind: kind, hv: h}
	durationNs := sc.DurationMs * 1e6
	for i, socket := range []int{0, 1} {
		if _, err := h.CreateVM(core.Process{CGroup: "kvm", KVMPrivileged: true}, core.VMSpec{
			Name: fmt.Sprintf("t%d", i), Socket: socket, MemoryBytes: 64 * geometry.MiB,
		}); err != nil {
			h.Shutdown()
			return nil, fmt.Errorf("tenant t%d: %w", i, err)
		}
	}
	cfg := serve.Config{
		Hypervisor: h,
		Tenants: []serve.TenantSpec{
			{VM: "t0", TargetQPS: sc.QPS, ValueBytes: sc.ValueBytes},
			{VM: "t1", TargetQPS: sc.QPS, ValueBytes: sc.ValueBytes},
		},
		DurationNs: durationNs,
		SLONs:      sc.SLOUs * 1e3,
		Seed:       seed,
		Churn:      serveChurnSchedule(durationNs),
	}
	if spec := lab.Mitigation; spec.HasRowDefense() {
		banks := lab.Geometry.TotalBanks()
		cfg.Mitigation = func(_ string, socket int) mitigation.Mitigation {
			d, err := spec.RowDefense(banks, mitigation.ScopeSeed(seed, socket))
			if err != nil {
				return nil // unreachable: the spec validated at boot
			}
			m := wrapMitigation(d, tr)
			row.mits = append(row.mits, m)
			return m
		}
	}
	tr.Begin(lServeNew)
	row.loop, err = serve.New(cfg)
	tr.End()
	if err != nil {
		h.Shutdown()
		return nil, err
	}
	return row, nil
}

func (s *serveChurn) close() {
	for _, r := range s.rows {
		r.hv.Shutdown()
	}
}

// serve runs every row's loop in order and returns the reports.
func (s *serveChurn) serve(ctx context.Context, tr *Tracer) ([]*serve.Report, error) {
	var reps []*serve.Report
	for i, row := range s.rows {
		tr.Op(int64(i))
		tr.Begin(lServeRun)
		rep, err := row.loop.Run(ctx)
		tr.End()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", row.kind, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func (s *serveChurn) run(ctx context.Context, tr *Tracer) (*outcome, error) {
	out := &outcome{sim: map[string]float64{}, facts: map[string]float64{}}
	t0 := cpuTime()
	reps, err := s.serve(ctx, tr)
	// One latency sample per iteration. serve.Run serves every request of
	// a row in one call, so no public boundary times a single request; a
	// per-row sample would mix two modes (a Siloz row copies on defrag, a
	// Silver Bullet row observes every ACT, 1.7x apart in host time).
	out.lat = append(out.lat, cpuMsSince(t0))
	if err != nil {
		return nil, err
	}
	h64 := fnv.New64a()
	total := stats.NewHistogram()
	var requests, errs, violations int64
	var windows int
	var blackoutNs float64
	var refreshes int
	for i, rep := range reps {
		row := s.rows[i]
		total.Merge(rep.Total)
		requests += rep.Requests
		errs += rep.Errors
		violations += rep.Violations
		windows += len(rep.Windows)
		fmt.Fprintf(h64, "%v %d %d %d %x %x %x %x|", row.kind, rep.Requests, rep.Errors, rep.Violations,
			math.Float64bits(rep.LastCompletionNs), math.Float64bits(rep.Total.P50()),
			math.Float64bits(rep.Total.P99()), math.Float64bits(rep.Total.Max()))
		for _, w := range rep.Windows {
			blackoutNs += w.BlackoutNs
			fmt.Fprintf(h64, "%s %x %x %x %d %d %q %d|", w.Label, math.Float64bits(w.StartNs),
				math.Float64bits(w.EndNs), math.Float64bits(w.BlackoutNs), w.BytesCopied,
				w.DowntimeBytes, w.Err, w.Hist.Count())
		}
		for _, m := range row.mits {
			refreshes += m.Overhead().NeighborRefreshes
		}
	}
	fmt.Fprintf(h64, "refreshes %d", refreshes)
	out.digest = h64.Sum64()
	out.ops = requests
	out.failed = errs

	out.sim["sim_p50_us"] = total.P50() / 1e3
	out.sim["sim_p99_us"] = total.P99() / 1e3
	out.sim["sim_slo_miss_frac"] = float64(violations+errs) / float64(requests)
	out.facts["serve.run.requests"] = float64(requests)
	out.facts["serve.run.windows"] = float64(windows)
	out.facts["serve.run.sim_blackout_ms"] = blackoutNs / 1e6
	out.facts["mitigation.observe.refreshes"] = float64(refreshes)
	out.checks = append(out.checks, check{"serve_nonvacuous", requests > errs && requests > 0,
		fmt.Sprintf("%d requests served (%d failed) across %d defense rows", requests, errs, len(s.rows))})
	return out, nil
}
