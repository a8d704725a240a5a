package dram

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/geometry"
)

// rowStore backs media-row data with a slab arena of fixed-size row slots
// instead of a per-row map allocation. The DRAM model materializes a row's
// storage on the first write of non-zero bytes and drops it again once no
// line of it holds data, so under a churning fleet (VM create → write →
// scrub → destroy, thousands of times) the old map implementation allocated
// and garbage-collected an 8 KiB slice per row touched. The arena recycles
// released slots through a free list: steady-state churn performs zero
// allocations, and row data stays packed in large slabs instead of
// scattered heap objects.
//
// Indexing is flat: a (rank, bank) pair selects a lazily-allocated per-bank
// table of int32 slot references (slot+1; 0 = row absent), so the hot lookup
// is two array indexes — no hashing, no map buckets. Only banks that were
// ever written pay for their table.
//
// Every slot carries a line-presence bitmap, one bit per 64 B cache line,
// kept in per-slab word arrays beside the row bytes. The store keeps three
// rules:
//
//   - a line whose bit is clear reads zero;
//   - writing zeros over a clear line changes nothing, so a zero write never
//     materializes a row;
//   - a row with no bit set is released.
//
// A scrub therefore frees a row as soon as its last data-holding line is
// zeroed, however the scrub is cut into pieces, and a presence probe
// answers per line.
//
// rowStore is not safe for concurrent use; Module guards it with rowsMu.
type rowStore struct {
	rowBytes     int
	lineWords    int // uint64 words of line-presence bits per row
	banksPerRank int
	slabShift    uint       // log2 of rows per slab
	banks        [][]int32  // (rank*banksPerRank+bank) -> per-row slot+1, nil until touched
	rowsPer      int        // rows per bank
	slabs        [][]byte   // slab arena; slot s lives in slabs[s>>slabShift]
	lines        [][]uint64 // per-slab presence bitmaps, lineWords words per slot
	free         []int32    // released slots awaiting reuse (LIFO)
	next         int32      // next never-used slot
	live         int        // rows currently materialized
}

// run is the part of a physical range that one row holds: pieces of n
// bytes, piece k at row column col+k*64 and at offset off+k*stride into
// the range. A run of several pieces is made of whole lines (n == 64); a
// partial head or tail line is a run of one piece. Either way the pieces
// fill row bytes [col, col+span()) without gaps.
type run struct {
	bankIdx, row, col int
	off, stride       int
	pieces, n         int
}

// span is the run's length in the row.
func (r run) span() int { return (r.pieces-1)*geometry.CacheLineSize + r.n }

// rowStoreSlabBytes caps slabs at 1 MiB so churn touches few large
// allocations. A slab holds a power of two of rows, so locating a slot is a
// shift and a mask; a geometry with rows larger than the cap gets one row
// per slab.
const rowStoreSlabBytes = 1 << 20

func newRowStore(g geometry.Geometry) *rowStore {
	slabShift := uint(0)
	for g.RowBytes<<(slabShift+1) <= rowStoreSlabBytes {
		slabShift++
	}
	rowLines := g.RowBytes / geometry.CacheLineSize
	return &rowStore{
		rowBytes:     g.RowBytes,
		lineWords:    (rowLines + 63) / 64,
		banksPerRank: g.BanksPerRank,
		slabShift:    slabShift,
		banks:        make([][]int32, g.BanksPerDIMM()),
		rowsPer:      g.RowsPerBank,
	}
}

// bankIndex flattens a (rank, bank) pair; callers pass validated IDs.
func (s *rowStore) bankIndex(rank, bank int) int {
	return rank*s.banksPerRank + bank
}

// slot returns the backing bytes of an allocated slot.
func (s *rowStore) slot(ref int32) []byte {
	off := int(ref&(1<<s.slabShift-1)) * s.rowBytes
	return s.slabs[ref>>s.slabShift][off : off+s.rowBytes]
}

// mask returns the line-presence bitmap of an allocated slot.
func (s *rowStore) mask(ref int32) []uint64 {
	off := int(ref&(1<<s.slabShift-1)) * s.lineWords
	return s.lines[ref>>s.slabShift][off : off+s.lineWords]
}

// ref returns the row's slot+1, or 0 if the row is absent.
func (s *rowStore) ref(bankIdx, mediaRow int) int32 {
	tbl := s.banks[bankIdx]
	if tbl == nil {
		return 0
	}
	return tbl[mediaRow]
}

// row returns the row's bytes, or nil if the row was never materialized.
func (s *rowStore) row(bankIdx, mediaRow int) []byte {
	if ref := s.ref(bankIdx, mediaRow); ref != 0 {
		return s.slot(ref - 1)
	}
	return nil
}

// alloc returns the row's slot, materializing a zeroed one on first touch —
// from the free list when churn released one, from a fresh slab otherwise.
func (s *rowStore) alloc(bankIdx, mediaRow int) int32 {
	tbl := s.banks[bankIdx]
	if tbl == nil {
		tbl = make([]int32, s.rowsPer)
		s.banks[bankIdx] = tbl
	}
	if ref := tbl[mediaRow]; ref != 0 {
		return ref - 1
	}
	var ref int32
	if n := len(s.free); n > 0 {
		ref = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ref = s.next
		s.next++
		if int(ref>>s.slabShift) >= len(s.slabs) {
			s.slabs = append(s.slabs, make([]byte, s.rowBytes<<s.slabShift))
			s.lines = append(s.lines, make([]uint64, s.lineWords<<s.slabShift))
		}
	}
	tbl[mediaRow] = ref + 1
	s.live++
	return ref
}

// release drops a row's backing and queues its slot for reuse. Only lines
// whose bit is set can hold data, so only those are zeroed; a row released
// by a scrub has none left. Releasing an absent row is a no-op (the row
// already reads as zeros).
func (s *rowStore) release(bankIdx, mediaRow int) {
	ref := s.ref(bankIdx, mediaRow)
	if ref == 0 {
		return
	}
	s.banks[bankIdx][mediaRow] = 0
	row, m := s.slot(ref-1), s.mask(ref-1)
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			line := w*64 + bits.TrailingZeros64(word)
			clear(row[line*geometry.CacheLineSize:][:geometry.CacheLineSize])
		}
		m[w] = 0
	}
	s.free = append(s.free, ref-1)
	s.live--
}

// anySet reports whether any line overlapping row bytes [col, col+n) may
// hold data: the row is present and one of those lines' bits is set.
func (s *rowStore) anySet(bankIdx, mediaRow, col, n int) bool {
	ref := s.ref(bankIdx, mediaRow)
	if ref == 0 {
		return false
	}
	m := s.mask(ref - 1)
	end := (col + n + geometry.CacheLineSize - 1) / geometry.CacheLineSize
	for line := col / geometry.CacheLineSize; line < end; line++ {
		if m[line/64]&(1<<(line%64)) != 0 {
			return true
		}
	}
	return false
}

// read copies the run's row bytes into buf; an absent row reads zero.
func (s *rowStore) read(r run, buf []byte) {
	row := s.row(r.bankIdx, r.row)
	for k := 0; k < r.pieces; k++ {
		dst := buf[r.off+k*r.stride:][:r.n]
		if row == nil {
			clear(dst)
		} else {
			copy(dst, row[r.col+k*geometry.CacheLineSize:])
		}
	}
}

// write stores the run's bytes of data into its row. A line that held no
// data gets its bit only if it now does, so writing zeros never
// materializes a row.
func (s *rowStore) write(r run, data []byte) {
	var row []byte
	var m []uint64
	if ref := s.ref(r.bankIdx, r.row); ref != 0 {
		row, m = s.slot(ref-1), s.mask(ref-1)
	}
	for k := 0; k < r.pieces; k++ {
		col, src := r.col+k*geometry.CacheLineSize, data[r.off+k*r.stride:][:r.n]
		if m == nil {
			if allZero(src) {
				continue
			}
			ref := s.alloc(r.bankIdx, r.row)
			row, m = s.slot(ref), s.mask(ref)
		}
		copy(row[col:], src)
		for lo, end := col, col+len(src); lo < end; {
			line := uint(lo) / geometry.CacheLineSize
			hi := min(end, int(line+1)*geometry.CacheLineSize)
			if w, bit := line/64, uint64(1)<<(line%64); m[w]&bit == 0 && !allZero(row[lo:hi]) {
				m[w] |= bit
			}
			lo = hi
		}
	}
}

// scrub zeroes n bytes of the row from col. Lines whose bit is clear
// already read zero and are skipped; lines the range covers whole lose
// their bit, and a row left with no bit set is released. An absent row
// stays absent.
func (s *rowStore) scrub(bankIdx, mediaRow, col, n int) {
	ref := s.ref(bankIdx, mediaRow)
	if ref == 0 {
		return
	}
	if col == 0 && n == s.rowBytes {
		s.release(bankIdx, mediaRow)
		return
	}
	row, m := s.slot(ref-1), s.mask(ref-1)
	end := (col + n + geometry.CacheLineSize - 1) / geometry.CacheLineSize
	for line := col / geometry.CacheLineSize; line < end; line++ {
		if m[line/64] == 0 {
			line |= 63 // no data in this word's lines
			continue
		}
		bit := uint64(1) << (line % 64)
		if m[line/64]&bit == 0 {
			continue
		}
		lo := max(col, line*geometry.CacheLineSize)
		hi := min(col+n, (line+1)*geometry.CacheLineSize)
		clear(row[lo:hi])
		if hi-lo == geometry.CacheLineSize {
			m[line/64] &^= bit
		}
	}
	for _, w := range m {
		if w != 0 {
			return
		}
	}
	s.release(bankIdx, mediaRow)
}

// setBit drives bit i of the row (counted from the row's first byte) to v
// and reports whether it changed. Only a change materializes the row and
// marks the bit's line present.
func (s *rowStore) setBit(bankIdx, mediaRow, i int, v bool) bool {
	off, b := i/8, byte(1)<<(i%8)
	ref := s.ref(bankIdx, mediaRow)
	if cur := ref != 0 && s.slot(ref - 1)[off]&b != 0; cur == v {
		return false
	}
	if ref == 0 {
		ref = s.alloc(bankIdx, mediaRow) + 1
	}
	r := s.slot(ref - 1)
	if v {
		r[off] |= b
	} else {
		r[off] &^= b
	}
	line := off / geometry.CacheLineSize
	s.mask(ref - 1)[line/64] |= 1 << (line % 64)
	return true
}

// len reports how many rows are currently materialized.
func (s *rowStore) len() int { return s.live }

// allZero reports whether b holds only zero bytes, eight at a time.
func allZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
