package dram

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// rowStoreTestGeometry is small enough to exercise slab growth, multi-rank
// bank indexing, and reuse without large allocations.
func rowStoreTestGeometry() geometry.Geometry {
	g := geometry.Default()
	g.Sockets = 1
	g.DIMMsPerSocket = 1
	g.RanksPerDIMM = 2
	g.BanksPerRank = 4
	g.RowsPerBank = 4096
	g.RowBytes = 2 * geometry.KiB
	g.RowsPerSubarray = 512
	return g
}

// rowAlloc materializes a row and returns its raw bytes for the arena tests
// below to write directly. Every line is marked present, since any of them
// may now hold data.
func (s *rowStore) rowAlloc(bankIdx, mediaRow int) []byte {
	ref := s.alloc(bankIdx, mediaRow)
	m := s.mask(ref)
	for line := 0; line < s.rowBytes/geometry.CacheLineSize; line++ {
		m[line/64] |= 1 << (line % 64)
	}
	return s.slot(ref)
}

// TestRowStoreGoldenAgainstMap drives the arena and the previous map
// implementation through the same randomized alloc/write/release schedule and
// demands identical observable state at every step.
func TestRowStoreGoldenAgainstMap(t *testing.T) {
	g := rowStoreTestGeometry()
	s := newRowStore(g)
	ref := map[[2]int][]byte{} // (bankIdx, mediaRow) -> row bytes

	rng := rand.New(rand.NewSource(7))
	banks := g.BanksPerDIMM()
	for step := 0; step < 20000; step++ {
		bankIdx := rng.Intn(banks)
		row := rng.Intn(g.RowsPerBank)
		key := [2]int{bankIdx, row}
		switch op := rng.Intn(10); {
		case op < 5: // write some bytes (materializes)
			got := s.rowAlloc(bankIdx, row)
			want := ref[key]
			if want == nil {
				want = make([]byte, g.RowBytes)
				ref[key] = want
			}
			off := rng.Intn(g.RowBytes)
			b := byte(rng.Intn(256))
			got[off] = b
			want[off] = b
		case op < 8: // read
			got := s.row(bankIdx, row)
			want := ref[key]
			if (got == nil) != (want == nil) {
				t.Fatalf("step %d: presence mismatch for %v: arena=%v map=%v",
					step, key, got != nil, want != nil)
			}
			if got != nil && !bytes.Equal(got, want) {
				t.Fatalf("step %d: content mismatch for %v", step, key)
			}
		default: // release (full-row scrub)
			s.release(bankIdx, row)
			delete(ref, key)
		}
		if s.len() != len(ref) {
			t.Fatalf("step %d: live count %d, map has %d", step, s.len(), len(ref))
		}
	}

	// Final sweep: every map entry must match the arena, and every absent
	// entry must be absent.
	for bankIdx := 0; bankIdx < banks; bankIdx++ {
		for row := 0; row < g.RowsPerBank; row++ {
			got := s.row(bankIdx, row)
			want := ref[[2]int{bankIdx, row}]
			if (got == nil) != (want == nil) {
				t.Fatalf("final: presence mismatch at bank %d row %d", bankIdx, row)
			}
			if got != nil && !bytes.Equal(got, want) {
				t.Fatalf("final: content mismatch at bank %d row %d", bankIdx, row)
			}
		}
	}
}

// TestRowStoreReuseZeroes checks that a released slot comes back zeroed (the
// scrub guarantee: a recycled slot must not leak the previous tenant's bytes)
// and that steady-state churn recycles slots instead of growing the arena.
func TestRowStoreReuseZeroes(t *testing.T) {
	g := rowStoreTestGeometry()
	s := newRowStore(g)

	r := s.rowAlloc(0, 10)
	for i := range r {
		r[i] = 0xAB
	}
	s.release(0, 10)
	slabs := len(s.slabs)

	// Reallocation (any row) must reuse the freed slot and observe zeros.
	r2 := s.rowAlloc(3, 99)
	for i, b := range r2 {
		if b != 0 {
			t.Fatalf("recycled slot byte %d = %#x, want 0", i, b)
		}
	}
	if len(s.slabs) != slabs {
		t.Fatalf("churn grew the arena: %d -> %d slabs", slabs, len(s.slabs))
	}
	if s.next != 1 {
		t.Fatalf("allocated fresh slot instead of recycling: next=%d", s.next)
	}
}

// TestRowStoreModuleScrubReleases checks the Module-level contract: a
// full-row scrub releases backing storage, and releases are observable via
// the arena's live count.
func TestRowStoreModuleScrubReleases(t *testing.T) {
	g := rowStoreTestGeometry()
	m, err := NewModule(g, ProfileF(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := geometry.BankID{Socket: 0, DIMM: 0, Rank: 1, Bank: 2}
	data := bytes.Repeat([]byte{0x5A}, 64)
	if err := m.WriteRow(b, 7, 128, data); err != nil {
		t.Fatal(err)
	}
	if m.rows.len() != 1 {
		t.Fatalf("after write: live=%d, want 1", m.rows.len())
	}
	if err := m.ScrubRow(b, 7, 0, g.RowBytes); err != nil {
		t.Fatal(err)
	}
	if m.rows.len() != 0 {
		t.Fatalf("after full scrub: live=%d, want 0", m.rows.len())
	}
	buf := make([]byte, 64)
	if err := m.ReadRow(b, 7, 128, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("scrubbed row byte %d = %#x, want 0", i, v)
		}
	}
}

// BenchmarkRowStoreChurn measures the VM-churn pattern the arena exists for:
// write a row, scrub it, repeat — steady state must not allocate.
func BenchmarkRowStoreChurn(b *testing.B) {
	g := rowStoreTestGeometry()
	m, err := NewModule(g, ProfileF(), 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	data := bytes.Repeat([]byte{0xC3}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i % g.RowsPerBank
		if err := m.WriteRow(bank, row, 0, data); err != nil {
			b.Fatal(err)
		}
		if err := m.ScrubRow(bank, row, 0, g.RowBytes); err != nil {
			b.Fatal(err)
		}
	}
}
