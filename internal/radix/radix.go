// Package radix holds the sparse table the device and FTL block state
// live in: a dense index space whose slots exist only where something
// was touched, so memory follows the blocks a trace touches rather than
// the size of the array.
package radix

import "iter"

const (
	groupBits = 3
	// Fan is the number of slots one group holds.
	Fan = 1 << groupBits
)

// Table maps slot indices to values of type C through two levels: a top
// slice grown to the highest group touched, and groups of Fan slots
// allocated on first touch. The zero value is an empty table. Groups
// are never freed or moved, so a slot pointer stays valid for the
// table's lifetime; only the top slice is reallocated as it grows.
type Table[C any] struct {
	groups []*[Fan]C
}

// Find returns slot i, or nil if its group was never allocated.
func (t *Table[C]) Find(i int) *C {
	g := i >> groupBits
	if g >= len(t.groups) || t.groups[g] == nil {
		return nil
	}
	return &t.groups[g][i&(Fan-1)]
}

// Slot returns slot i, allocating its group on first touch.
func (t *Table[C]) Slot(i int) *C {
	g := i >> groupBits
	if g >= len(t.groups) {
		t.groups = append(t.groups, make([]*[Fan]C, g+1-len(t.groups))...)
	}
	grp := t.groups[g]
	if grp == nil {
		grp = new([Fan]C)
		t.groups[g] = grp
	}
	return &grp[i&(Fan-1)]
}

// Len reports an upper bound on the indices of allocated slots: no
// slot at or above it exists.
func (t *Table[C]) Len() int { return len(t.groups) << groupBits }

// All visits every slot of every allocated group in ascending index
// order, zero-valued slots included.
func (t *Table[C]) All() iter.Seq2[int, *C] {
	return func(yield func(int, *C) bool) {
		for g, grp := range t.groups {
			if grp == nil {
				continue
			}
			for j := range grp {
				if !yield(g<<groupBits|j, &grp[j]) {
					return
				}
			}
		}
	}
}
