package ftl

import "triplea/internal/topo"

// pageTable is the LPN → PPN translation: a radix table indexed by LPN
// bits, 8 bits per level. The root slice covers the array's pages, one
// slot per 2^24 LPNs (256 slots at the default 2^32 pages); under it sit
// two levels of inner nodes and then the leaves, every node 256 entries
// (2 KiB) and allocated on first touch. Memory therefore follows the
// LPN ranges a trace touches: a densely touched range costs 8 B per LPN,
// an isolated LPN one leaf and two inner nodes (6 KiB). Nodes are never
// freed, so a slot pointer stays valid for the FTL's lifetime.
type pageTable struct {
	root   []*pageHigh
	mapped int // slots holding a PPN
	lost   int // slots marked slotLost
}

const (
	radixBits = 8
	radixFan  = 1 << radixBits
	radixMask = radixFan - 1
	rootShift = 3 * radixBits // LPN bits below a root slot
)

// A leaf slot holds 0 (never mapped), slotLost or a PPN plus slotBias.
// PPN packs 56 bits, so the bias cannot wrap.
const (
	slotLost = 1 // the mapped page was destroyed by a fault
	slotBias = 2
)

type (
	pageHigh [radixFan]*pageMid
	pageMid  [radixFan]*pageLeaf
	pageLeaf [radixFan]uint64
)

func newPageTable(totalPages int64) pageTable {
	return pageTable{root: make([]*pageHigh, (totalPages+1<<rootShift-1)>>rootShift)}
}

// find returns lpn's slot, or nil if no mapping was ever installed in
// its leaf. An LPN outside the table has no slot.
func (t *pageTable) find(lpn int64) *uint64 {
	if uint64(lpn) >= uint64(len(t.root))<<rootShift {
		return nil
	}
	h := t.root[lpn>>rootShift]
	if h == nil {
		return nil
	}
	m := h[lpn>>(2*radixBits)&radixMask]
	if m == nil {
		return nil
	}
	l := m[lpn>>radixBits&radixMask]
	if l == nil {
		return nil
	}
	return &l[lpn&radixMask]
}

// slot returns lpn's slot, allocating the nodes on its path. The
// caller has checked that lpn is in range.
func (t *pageTable) slot(lpn int64) *uint64 {
	h := t.root[lpn>>rootShift]
	if h == nil {
		h = new(pageHigh)
		t.root[lpn>>rootShift] = h
	}
	m := h[lpn>>(2*radixBits)&radixMask]
	if m == nil {
		m = new(pageMid)
		h[lpn>>(2*radixBits)&radixMask] = m
	}
	l := m[lpn>>radixBits&radixMask]
	if l == nil {
		l = new(pageLeaf)
		m[lpn>>radixBits&radixMask] = l
	}
	return &l[lpn&radixMask]
}

// mappedAt decodes a slot: its PPN and whether it holds one.
func mappedAt(s *uint64) (topo.PPN, bool) {
	if s == nil || *s < slotBias {
		return 0, false
	}
	return topo.PPN(*s - slotBias), true
}

// set installs ppn in slot s, replacing whatever it held.
func (t *pageTable) set(s *uint64, ppn topo.PPN) {
	if *s < slotBias {
		t.mapped++
		if *s == slotLost {
			t.lost--
		}
	}
	*s = uint64(ppn) + slotBias
}

// drop marks the mapped slot s lost.
func (t *pageTable) drop(s *uint64) {
	*s = slotLost
	t.mapped--
	t.lost++
}

// walk visits every mapped slot in ascending LPN order; returning false
// stops the walk.
func (t *pageTable) walk(visit func(lpn int64, ppn topo.PPN) bool) {
	for i, h := range t.root {
		if h == nil {
			continue
		}
		for j, m := range h {
			if m == nil {
				continue
			}
			for k, l := range m {
				if l == nil {
					continue
				}
				base := int64(i)<<rootShift | int64(j)<<(2*radixBits) | int64(k)<<radixBits
				for x, v := range l {
					if v >= slotBias && !visit(base|int64(x), topo.PPN(v-slotBias)) {
						return
					}
				}
			}
		}
	}
}
