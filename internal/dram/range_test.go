package dram

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// fleetLabGeometry is the fleet-churn experiment's per-host box: two
// sockets of one two-rank DIMM with 8 banks per rank and 4096 rows per bank.
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

// lineByLine hides a mapper's addr.Striper, so walks decode every line.
type lineByLine struct{ addr.Mapper }

// newTestMemory builds memory over g with the given mapper kind and the
// deterministic test profile.
func newTestMemory(tb testing.TB, g geometry.Geometry, kind addr.Kind) *Memory {
	tb.Helper()
	mapper, err := addr.NewMapper(g, kind)
	if err != nil {
		tb.Fatal(err)
	}
	return newMemoryOver(tb, mapper)
}

func newMemoryOver(tb testing.TB, mapper addr.Mapper) *Memory {
	tb.Helper()
	mem, err := NewMemory(mapper.Geometry(), mapper, []Profile{testProfile()}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return mem
}

// liveRows counts materialized rows across every module.
func liveRows(mem *Memory) int {
	n := 0
	for _, socket := range mem.modules {
		for _, mod := range socket {
			mod.rowsMu.Lock()
			n += mod.rows.len()
			mod.rowsMu.Unlock()
		}
	}
	return n
}

// checkRowStores verifies the row store's rules on every module: each
// present row has a line bit set, every clear line reads zero, and the live
// count matches the present rows.
func checkRowStores(tb testing.TB, mem *Memory) {
	tb.Helper()
	for _, socket := range mem.modules {
		for _, mod := range socket {
			mod.rowsMu.Lock()
			s := mod.rows
			present := 0
			for bankIdx, tbl := range s.banks {
				for row, ref := range tbl {
					if ref == 0 {
						continue
					}
					present++
					m, data := s.mask(ref-1), s.slot(ref-1)
					set := false
					for line := 0; line < s.rowBytes/geometry.CacheLineSize; line++ {
						if m[line/64]&(1<<(line%64)) != 0 {
							set = true
						} else if !allZero(data[line*geometry.CacheLineSize : (line+1)*geometry.CacheLineSize]) {
							mod.rowsMu.Unlock()
							tb.Fatalf("module s%d.d%d bank %d row %d: line %d is clear but holds data",
								mod.socket, mod.dimm, bankIdx, row, line)
						}
					}
					if !set {
						mod.rowsMu.Unlock()
						tb.Fatalf("module s%d.d%d bank %d row %d is present with no line bit set",
							mod.socket, mod.dimm, bankIdx, row)
					}
				}
			}
			live := s.len()
			mod.rowsMu.Unlock()
			if live != present {
				tb.Fatalf("module s%d.d%d: live count %d, %d rows present", mod.socket, mod.dimm, live, present)
			}
		}
	}
}

// TestScrubPhysReleasesRows pins the release of scrubbed rows. ScrubPhys
// reaches each row one 64 B line at a time under the Skylake mapper, so a
// release that waits for a single full-row scrub call never fires and a
// written-then-scrubbed page left every row it touched live.
func TestScrubPhysReleasesRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    geometry.Geometry
	}{
		{"fleet-lab", fleetLabGeometry()},
		{"default", geometry.Default()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := newTestMemory(t, tc.g, addr.KindSkylake)
			const page = geometry.PageSize2M
			pa := uint64(3 * page)
			data := make([]byte, page)
			rand.New(rand.NewSource(5)).Read(data)
			for i := range data {
				data[i] |= 1 // every line non-zero
			}

			if err := mem.WritePhys(pa, data); err != nil {
				t.Fatal(err)
			}
			if liveRows(mem) == 0 {
				t.Fatal("writing a non-zero page materialized no row")
			}
			if err := mem.ScrubPhys(pa, page); err != nil {
				t.Fatal(err)
			}
			for _, socket := range mem.modules {
				for _, mod := range socket {
					if n := mod.rows.len(); n != 0 {
						t.Fatalf("module s%d.d%d keeps %d live rows after the page was scrubbed", mod.socket, mod.dimm, n)
					}
				}
			}

			if err := mem.WritePhys(pa, make([]byte, page)); err != nil {
				t.Fatal(err)
			}
			if n := liveRows(mem); n != 0 {
				t.Fatalf("writing an all-zero page materialized %d rows", n)
			}
			if ok, err := mem.Materialized(pa, page); err != nil || ok {
				t.Fatalf("Materialized after a zero write = %v, %v; want false", ok, err)
			}

			if err := mem.WritePhys(pa, data); err != nil {
				t.Fatal(err)
			}
			const hole, holeLen = 8 * geometry.KiB, geometry.PageSize4K
			if err := mem.ScrubPhys(pa+hole, holeLen); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, page)
			if err := mem.ReadPhys(pa, got); err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), data...)
			clear(want[hole : hole+holeLen])
			if !bytes.Equal(got, want) {
				t.Fatal("a 4 KiB scrub inside a written page changed bytes outside it or left bytes inside it")
			}
			checkRowStores(t, mem)
		})
	}
}

// TestMaterializedTracksLines checks the probe against written, flipped
// and scrubbed lines on both mapper families.
func TestMaterializedTracksLines(t *testing.T) {
	for _, kind := range []addr.Kind{addr.KindSkylake, addr.KindLinear} {
		mem := newTestMemory(t, tinyGeometry(), kind)
		probe := func(pa uint64, n int) bool {
			t.Helper()
			ok, err := mem.Materialized(pa, n)
			if err != nil {
				t.Fatal(err)
			}
			return ok
		}
		if probe(0, geometry.PageSize2M) {
			t.Fatalf("%v: fresh memory reports materialized lines", kind)
		}
		if err := mem.WritePhys(4096+70, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if !probe(4096, 4096) || !probe(4096+64, 64) {
			t.Fatalf("%v: written line not reported", kind)
		}
		if probe(4096+128, 4096-128) || probe(0, 4096) {
			t.Fatalf("%v: a line that was never written is reported", kind)
		}
		if err := mem.ScrubPhys(4096+64, 64); err != nil {
			t.Fatal(err)
		}
		if probe(0, geometry.PageSize2M) {
			t.Fatalf("%v: scrubbed line still reported", kind)
		}
		if _, err := mem.Materialized(uint64(mem.Geometry().TotalBytes()), 1); err == nil {
			t.Fatalf("%v: probe beyond memory accepted", kind)
		}
	}
}

// rangeFuzzGeometry is small enough for a flat byte-array model: two
// single-bank DIMMs (so walks change module), 8 KiB rows (two bitmap words
// per row) and 16 MiB in all.
func rangeFuzzGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         1,
		CoresPerSocket:  1,
		DIMMsPerSocket:  2,
		RanksPerDIMM:    1,
		BanksPerRank:    1,
		RowsPerBank:     1024,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 256,
	}
}

// rangeModel runs fuzz-decoded range operations against one Memory and a
// flat byte array of the same physical space.
type rangeModel struct {
	tb    testing.TB
	mem   *Memory
	model []byte
	flips int // mem.Flips() already folded into the model
}

func (r *rangeModel) checkRead(pa uint64, n int) {
	got := make([]byte, n)
	if err := r.mem.ReadPhys(pa, got); err != nil {
		r.tb.Fatal(err)
	}
	if want := r.model[pa : pa+uint64(n)]; !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		r.tb.Fatalf("ReadPhys(%#x, %d): byte at %#x = %#x, model %#x", pa, n, pa+uint64(i), got[i], want[i])
	}
}

// hammer activates the row behind pa past the test profile's threshold and
// folds every committed flip into the model. A flip is logged only when the
// bit changed, so toggling the model bit is exact.
func (r *rangeModel) hammer(pa uint64, count int) {
	if err := r.mem.ActivatePhys(pa, count, 0); err != nil {
		r.mem.Refresh() // activation budget spent: next window
		if err := r.mem.ActivatePhys(pa, count, 0); err != nil {
			r.tb.Fatal(err)
		}
	}
	flips := r.mem.Flips()
	for _, f := range flips[r.flips:] {
		fpa, err := r.mem.FlipPhys(f)
		if err != nil {
			r.tb.Fatal(err)
		}
		r.model[fpa] ^= 1 << (f.Bit % 8)
	}
	r.flips = len(flips)
}

// FuzzMemoryRangeOps decodes bytes into WritePhys/ReadPhys/ScrubPhys/
// Materialized calls and hammering, with unaligned, partial-line and
// all-zero ranges, and checks each against a flat model of physical memory
// under both mapper families, and line by line. Every read must equal the model, a range the
// probe calls unmaterialized must be all zero in the model, and the row
// store's rules must hold after every step.
func FuzzMemoryRangeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 40, 1, 1, 1, 2, 3, 0, 40, 0, 2, 1, 2, 3, 0, 40, 2, 3, 1, 2, 3, 0, 40})
	f.Add([]byte{0, 0, 0, 0, 0, 255, 0, 4, 0, 0, 0, 0, 200, 1, 0, 0, 16, 0, 3, 4})
	f.Add([]byte{4, 0, 32, 0, 0, 0, 3, 0, 32, 0, 255, 255, 2, 0, 32, 0, 255, 255, 3, 0, 0, 0, 255, 255, 1, 0, 31, 255, 255, 255})
	f.Add([]byte{0, 7, 0, 63, 1, 2, 2, 2, 7, 0, 1, 0, 65, 3, 7, 0, 0, 0, 130, 1, 7, 0, 0, 2, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 200, 1, 0, 0, 1, 0, 0, 100, 0, 1, 0, 1, 0, 0, 250})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := rangeFuzzGeometry()
		total := int(g.TotalBytes())
		sky, err := addr.NewMapper(g, addr.KindSkylake)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := addr.NewMapper(g, addr.KindLinear)
		if err != nil {
			t.Fatal(err)
		}
		for _, mapper := range []addr.Mapper{sky, lin, lineByLine{sky}} {
			r := &rangeModel{tb: t, mem: newMemoryOver(t, mapper), model: make([]byte, total)}
			in := ops
			next := func() int {
				if len(in) == 0 {
					return 0
				}
				b := in[0]
				in = in[1:]
				return int(b)
			}
			for step := 0; len(in) > 0 && step < 64; step++ {
				op := next() % 5
				pa := uint64((next()<<16 | next()<<8 | next()) * 7 % total)
				n := 1 + (next()<<8|next())%(3*g.RowBytes)
				if rest := total - int(pa); n > rest {
					n = rest
				}
				switch op {
				case 0: // write: all zero, dense, or sparse bytes
					data := make([]byte, n)
					rng := rand.New(rand.NewSource(int64(step)))
					switch next() % 3 {
					case 1:
						rng.Read(data)
					case 2:
						data[rng.Intn(n)] = byte(1 + rng.Intn(255))
					}
					if err := r.mem.WritePhys(pa, data); err != nil {
						t.Fatal(err)
					}
					copy(r.model[pa:], data)
				case 1:
					r.checkRead(pa, n)
				case 2:
					if err := r.mem.ScrubPhys(pa, n); err != nil {
						t.Fatal(err)
					}
					clear(r.model[pa : pa+uint64(n)])
				case 3:
					present, err := r.mem.Materialized(pa, n)
					if err != nil {
						t.Fatal(err)
					}
					if !present && !allZero(r.model[pa:pa+uint64(n)]) {
						t.Fatalf("%T: Materialized(%#x, %d) = false over non-zero model bytes", mapper, pa, n)
					}
				case 4:
					r.hammer(pa, int(testProfile().HammerThreshold)*(1+next()%3))
				}
				checkRowStores(t, r.mem)
			}
			r.checkRead(0, total)
		}
	})
}

// TestConcurrentPhysRangeOps runs copies, scrubs and reads of overlapping
// 2 MiB ranges on one Memory while another goroutine hammers rows of the
// same modules until flips commit. Writers fill each 64 B line with one
// repeated byte, so a reader that sees two values inside a line saw a torn
// line. The hammered rows sit in another subarray, so no flip lands in the
// copied pages. A walk that took two module locks at once, or rowsMu
// before actMu, would deadlock here.
func TestConcurrentPhysRangeOps(t *testing.T) {
	g := fleetLabGeometry()
	g.DIMMsPerSocket = 2 // walks change module inside every page
	mem := newTestMemory(t, g, addr.KindSkylake)
	const page = geometry.PageSize2M
	const pages = 4
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, page) }
	for p := 0; p < pages; p++ {
		if err := mem.WritePhys(uint64(p)*page, fill(byte(p+1))); err != nil {
			t.Fatal(err)
		}
	}
	// An aggressor two subarrays above the copied pages' rows.
	aggPA, err := mem.Mapper().Encode(geometry.MediaAddr{
		Bank: geometry.BankID{Socket: 0, DIMM: 1, Rank: 1, Bank: 3}, Row: 2 * g.RowsPerSubarray,
	})
	if err != nil {
		t.Fatal(err)
	}

	torn := func(buf []byte) bool {
		for l := 0; l < len(buf); l += geometry.CacheLineSize {
			line := buf[l : l+geometry.CacheLineSize]
			for _, c := range line {
				if c != line[0] {
					return true
				}
			}
		}
		return false
	}
	const iters = 12
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // copy page w+1 onto page w, then scrub page w
			defer wg.Done()
			buf := make([]byte, page)
			for i := 0; i < iters; i++ {
				src, dst := uint64(w+1)*page, uint64(w)*page
				if err := mem.ReadPhys(src, buf); err != nil {
					errs <- err
					return
				}
				if torn(buf) {
					t.Errorf("copier %d: torn line in source page", w)
					return
				}
				if err := mem.WritePhys(dst, buf); err != nil {
					errs <- err
					return
				}
				if err := mem.ScrubPhys(dst+page/2, page/2); err != nil {
					errs <- err
					return
				}
				if _, err := mem.Materialized(dst, page); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // read a range straddling two pages
		defer wg.Done()
		buf := make([]byte, page)
		for i := 0; i < 2*iters; i++ {
			if err := mem.ReadPhys(page/2, buf); err != nil {
				errs <- err
				return
			}
			if torn(buf) {
				t.Errorf("reader: torn line")
				return
			}
		}
	}()
	flipped := make(chan int, 1)
	go func() { // hammer until flips commit
		n := 0
		for i := 0; i < 40; i++ {
			if err := mem.ActivatePhys(aggPA, int(testProfile().HammerThreshold), 0); err != nil {
				mem.Refresh()
			}
			n = len(mem.Flips())
		}
		flipped <- n
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("range operations deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case n := <-flipped:
		if n == 0 {
			t.Fatal("hammering committed no flips")
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("hammering deadlocked")
	}
	checkRowStores(t, mem)
}
