package dram

import (
	"bytes"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

func BenchmarkActivateRowBatch(b *testing.B) {
	m, err := NewModule(tinyGeometry(), testProfile(), 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ActivateRow(bank, 100+(i%64), 100, 0); err != nil {
			m.Refresh()
		}
	}
}

func BenchmarkWriteReadRow(b *testing.B) {
	m, err := NewModule(tinyGeometry(), testProfile(), 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteRow(bank, i%1000, 0, buf); err != nil {
			b.Fatal(err)
		}
		if err := m.ReadRow(bank, i%1000, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// sparsePages builds fleet-lab memory under the Skylake mapper with the
// given number of 2 MiB pages, each carrying one 128 B stamp (two cache
// lines) at its start, the way fleet-churn's TouchPages stamps a VM's first
// pages.
func sparsePages(b *testing.B, pages int) *Memory {
	mem := newTestMemory(b, fleetLabGeometry(), addr.KindSkylake)
	stamp := bytes.Repeat([]byte{0xA5}, 2*geometry.CacheLineSize)
	for p := 0; p < pages; p++ {
		if err := mem.WritePhys(uint64(p)*geometry.PageSize2M, stamp); err != nil {
			b.Fatal(err)
		}
	}
	return mem
}

// BenchmarkPhysCopySparse2M is the migration copy's read side for one
// 2 MiB page: the presence probe, then a full read of a page that holds
// data. Every third page is stamped; the rest were never written, so the
// probe alone settles them.
func BenchmarkPhysCopySparse2M(b *testing.B) {
	const pages = 24
	mem := sparsePages(b, pages)
	for p := 0; p < pages; p++ {
		if p%3 != 0 {
			if err := mem.ScrubPhys(uint64(p)*geometry.PageSize2M, geometry.PageSize2M); err != nil {
				b.Fatal(err)
			}
		}
	}
	buf := make([]byte, geometry.PageSize2M)
	b.ReportAllocs()
	b.SetBytes(geometry.PageSize2M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := uint64(i%pages) * geometry.PageSize2M
		present, err := mem.Materialized(pa, len(buf))
		if err != nil {
			b.Fatal(err)
		}
		if present {
			if err := mem.ReadPhys(pa, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPhysScrub2M is a departure's scrub of one stamped 2 MiB page:
// re-stamp the page's two lines, then scrub the whole page.
func BenchmarkPhysScrub2M(b *testing.B) {
	const pages = 8
	mem := sparsePages(b, pages)
	stamp := bytes.Repeat([]byte{0x5A}, 2*geometry.CacheLineSize)
	b.ReportAllocs()
	b.SetBytes(geometry.PageSize2M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := uint64(i%pages) * geometry.PageSize2M
		if err := mem.WritePhys(pa, stamp); err != nil {
			b.Fatal(err)
		}
		if err := mem.ScrubPhys(pa, geometry.PageSize2M); err != nil {
			b.Fatal(err)
		}
	}
}
