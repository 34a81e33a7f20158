package index

import (
	"fmt"
	"hash/maphash"
	"math/bits"
)

// maxOwners bounds the rows one server indexes: a slot holds row + 1 in
// 32 bits, and the table's 2n slots must stay addressable.
const maxOwners = 1 << 30

// nameTable finds an owner's row by name. It is an open-addressed table
// of row + 1 (0 = empty) under linear probing, whose length is a power
// of two at least twice the row count, so a probe chain always ends at
// an empty slot. A slot holds no name, only 4 B of row number (8–16 B
// per owner): a probe confirms a hit against the server's names slice.
//
// The hash is keyed by a seed drawn per table, so names a client picks
// cannot be aimed at one probe chain across servers or restarts.
type nameTable struct {
	seed  maphash.Seed
	slots []uint32
}

// newNameTable indexes names[j] at row j in one pass, refusing a
// duplicate name.
func newNameTable(names []string) (nameTable, error) {
	if len(names) > maxOwners {
		return nameTable{}, fmt.Errorf("index: %d owners, at most %d", len(names), maxOwners)
	}
	t := nameTable{
		seed:  maphash.MakeSeed(),
		slots: make([]uint32, 1<<bits.Len(uint(max(2*len(names)-1, 1)))),
	}
	mask := uint64(len(t.slots) - 1)
	for j, name := range names {
		i := maphash.String(t.seed, name) & mask
		for ; t.slots[i] != 0; i = (i + 1) & mask {
			if names[t.slots[i]-1] == name {
				return nameTable{}, fmt.Errorf("index: duplicate owner name %q", name)
			}
		}
		t.slots[i] = uint32(j + 1)
	}
	return t, nil
}

// find returns the row of owner in names, the slice the table was built
// over, and whether owner is present.
func (t *nameTable) find(names []string, owner string) (int, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(t.seed, owner) & mask; ; i = (i + 1) & mask {
		r := t.slots[i]
		if r == 0 {
			return 0, false
		}
		if names[r-1] == owner {
			return int(r - 1), true
		}
	}
}
