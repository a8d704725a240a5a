package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// Memory is the whole server's DRAM: one Module per DIMM, plus the memory
// controller's physical-to-media mapping. It is the single interface the
// hypervisor, workloads and attack code use to touch "hardware".
type Memory struct {
	g       geometry.Geometry
	mapper  addr.Mapper
	striper addr.Striper // mapper's stripe capability; nil walks line by line
	modules [][]*Module  // [socket][dimm]
}

// NewMemory builds server memory. profiles are assigned to DIMM slots
// round-robin within each socket (pass six profiles to model the paper's
// six distinct DIMMs per socket, or one profile for a uniform population).
// repairs may be nil.
func NewMemory(g geometry.Geometry, mapper addr.Mapper, profiles []Profile, repairs *addr.RepairTable) (*Memory, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("dram: at least one profile required")
	}
	mem := &Memory{g: g, mapper: mapper, modules: make([][]*Module, g.Sockets)}
	mem.striper, _ = mapper.(addr.Striper)
	for s := 0; s < g.Sockets; s++ {
		mem.modules[s] = make([]*Module, g.DIMMsPerSocket)
		for d := 0; d < g.DIMMsPerSocket; d++ {
			mod, err := NewModule(g, profiles[d%len(profiles)], s, d, repairs)
			if err != nil {
				return nil, err
			}
			mem.modules[s][d] = mod
		}
	}
	return mem, nil
}

// Geometry returns the server geometry.
func (m *Memory) Geometry() geometry.Geometry { return m.g }

// Mapper returns the physical-to-media mapper.
func (m *Memory) Mapper() addr.Mapper { return m.mapper }

// Module returns the DIMM at (socket, dimm).
func (m *Memory) Module(socket, dimm int) *Module { return m.modules[socket][dimm] }

// moduleFor routes a bank to its module.
func (m *Memory) moduleFor(b geometry.BankID) (*Module, error) {
	if !b.Valid(m.g) {
		return nil, fmt.Errorf("dram: invalid bank %v", b)
	}
	return m.modules[b.Socket][b.DIMM], nil
}

// WritePhys stores bytes at a host physical address, spanning rows and
// banks as the mapping dictates. Zeros written over lines that hold no data
// materialize nothing.
func (m *Memory) WritePhys(pa uint64, data []byte) error {
	return m.walk(pa, len(data), func(s *rowStore, r run) bool {
		s.write(r, data)
		return true
	})
}

// ReadPhys reads len(buf) bytes at a host physical address.
func (m *Memory) ReadPhys(pa uint64, buf []byte) error {
	return m.walk(pa, len(buf), func(s *rowStore, r run) bool {
		s.read(r, buf)
		return true
	})
}

// ScrubPhys zeroes n bytes at a host physical address. Untouched rows stay
// unmaterialized, so scrubbing terabytes of never-written guest RAM costs
// almost nothing — the sparse analogue of the kernel's free-page
// sanitization — and a row is released as soon as the scrub has zeroed the
// last of its lines that held data.
func (m *Memory) ScrubPhys(pa uint64, n int) error {
	return m.walk(pa, n, func(s *rowStore, r run) bool {
		s.scrub(r.bankIdx, r.row, r.col, r.span())
		return true
	})
}

// Materialized reports whether any cache line of [pa, pa+n) may hold data.
// false means the whole range reads zero, so a copy can skip it unread;
// true says only that some line was written or flipped since its last
// scrub (it may hold zeros again).
func (m *Memory) Materialized(pa uint64, n int) (bool, error) {
	found := false
	err := m.walk(pa, n, func(s *rowStore, r run) bool {
		found = s.anySet(r.bankIdx, r.row, r.col, r.span())
		return !found
	})
	return found, err
}

// walk splits [pa, pa+n) into runs and calls visit for each, under the
// owning module's rowsMu; visit returning false ends the walk. A partial
// head or tail line is a run of its own. Whole lines go stripe by stripe
// (addr.Striper): the ways rows a stripe interleaves over each take one run,
// so a walk decodes one line per row it touches, not one per line. Without
// the capability every line is its own stripe.
//
// The module lock is held across consecutive runs on the same module and
// released before the next module's is taken: a walk never holds two
// module locks and never takes actMu, so commitFlips' actMu→rowsMu order
// stays the only nesting. A line never spans two runs, so concurrent walks
// never see a torn 64 B line.
func (m *Memory) walk(pa uint64, n int, visit func(*rowStore, run) bool) error {
	const line = geometry.CacheLineSize
	var held *Module
	defer func() {
		if held != nil {
			held.rowsMu.Unlock()
		}
	}()
	for off := 0; off < n; {
		cur := pa + uint64(off)
		ways, lines := 1, 1
		piece := min(line-int(cur%line), n-off)
		if piece == line && n-off > line && m.striper != nil {
			w, span := m.striper.Stripe(cur)
			lines = max(int(min(span, int64(n-off))/line), 1)
			ways = min(max(w, 1), lines)
		}
		perRow, extra := lines/ways, lines%ways // the first extra rows take one more line
		for i := 0; i < ways; i++ {
			r := run{off: off + i*line, stride: ways * line, pieces: perRow, n: piece}
			if i < extra {
				r.pieces++
			}
			lpa := cur + uint64(i*line)
			ma, err := m.mapper.Decode(lpa)
			if err != nil {
				return err
			}
			mod, err := m.moduleFor(ma.Bank)
			if err != nil {
				return err
			}
			if uint(ma.Row) >= uint(m.g.RowsPerBank) || ma.Col < 0 || ma.Col+r.span() > m.g.RowBytes {
				return fmt.Errorf("dram: mapper placed %d bytes at %#x outside a row: %v", r.span(), lpa, ma)
			}
			r.bankIdx, r.row, r.col = mod.rows.bankIndex(ma.Bank.Rank, ma.Bank.Bank), ma.Row, ma.Col
			if mod != held {
				if held != nil {
					held.rowsMu.Unlock()
				}
				mod.rowsMu.Lock()
				held = mod
			}
			if !visit(mod.rows, r) {
				return nil
			}
		}
		off += (lines-1)*line + piece
	}
	return nil
}

// ActivatePhys issues count activations of the row backing a physical
// address, each holding the row open openNs nanoseconds. It is the
// primitive hammering and the memory-controller model build on.
func (m *Memory) ActivatePhys(pa uint64, count int, openNs int64) error {
	ma, err := m.mapper.Decode(pa)
	if err != nil {
		return err
	}
	mod, err := m.moduleFor(ma.Bank)
	if err != nil {
		return err
	}
	return mod.ActivateRow(ma.Bank, ma.Row, count, openNs)
}

// AttachDefense attaches one mitigation instance per module, built by
// build(socket, dimm, banks). Each module gets its own instance — defense
// state is per-scope, mirroring per-DIMM hardware — so build must derive
// any RNG seed from (socket, dimm) (see mitigation.ScopeSeed). A nil
// return from build leaves that module undefended.
func (m *Memory) AttachDefense(build func(socket, dimm, banks int) mitigation.Mitigation) {
	for s, socket := range m.modules {
		for d, mod := range socket {
			mod.AttachDefense(build(s, d, m.g.BanksPerDIMM()))
		}
	}
}

// DefenseOverhead sums attached-defense overhead across all modules.
func (m *Memory) DefenseOverhead() mitigation.Overhead {
	var o mitigation.Overhead
	for _, socket := range m.modules {
		for _, mod := range socket {
			o.Add(mod.DefenseOverhead())
		}
	}
	return o
}

// DefenseHealth reports the first degraded defense across modules.
func (m *Memory) DefenseHealth() error {
	for _, socket := range m.modules {
		for _, mod := range socket {
			if err := mod.DefenseHealth(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TotalActivations sums observed activations across all modules.
func (m *Memory) TotalActivations() int64 {
	var n int64
	for _, socket := range m.modules {
		for _, mod := range socket {
			n += mod.TotalActivations()
		}
	}
	return n
}

// Refresh ends the current refresh window on every module.
func (m *Memory) Refresh() {
	for _, socket := range m.modules {
		for _, mod := range socket {
			mod.Refresh()
		}
	}
}

// Window returns the refresh-window index (all modules refresh together).
func (m *Memory) Window() int { return m.modules[0][0].Window() }

// Flips aggregates all flips across modules.
func (m *Memory) Flips() []Flip {
	var out []Flip
	for _, socket := range m.modules {
		for _, mod := range socket {
			out = append(out, mod.Flips()...)
		}
	}
	return out
}

// ResetFlips clears every module's flip log.
func (m *Memory) ResetFlips() {
	for _, socket := range m.modules {
		for _, mod := range socket {
			mod.ResetFlips()
		}
	}
}

// FlipPhys translates a flip back to the host physical address of the
// corrupted byte, letting callers attribute corruption to software-visible
// locations.
func (m *Memory) FlipPhys(f Flip) (uint64, error) {
	return m.mapper.Encode(geometry.MediaAddr{
		Bank: f.Bank,
		Row:  f.MediaRow,
		Col:  f.ByteOffset(m.g),
	})
}
