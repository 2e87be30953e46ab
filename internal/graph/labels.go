package graph

// labelTable holds an NNSearcher's distance labels: an open-addressing
// int32→int64 hash table with linear probing and a multiplicative
// (Fibonacci) hash. Keys are stored as node+1, so 0 marks an empty
// slot, and keys and values live in separate slices: 12 bytes a slot.
// It starts at labelMinSlots slots and doubles at 3/4 load.
//
// A dense per-node array is not an option here: a matcher keeps one
// searcher per customer, and most of them label a few dozen nodes, so
// 8 bytes × N per searcher would outweigh the rest of a solve.
type labelTable struct {
	keys  []int32 // node+1; 0 = empty slot
	vals  []int64
	used  int
	shift uint8 // 32 - log2(len(keys)): the hash keeps the top bits
}

// labelMinSlots is a new table's slot count, a power of two.
const labelMinSlots = 16

func newLabelTable() labelTable {
	return labelTable{
		keys:  make([]int32, labelMinSlots),
		vals:  make([]int64, labelMinSlots),
		shift: 32 - 4, // log2(labelMinSlots) = 4
	}
}

// slot returns the index of stored key k's slot, or of the empty slot
// where k belongs.
func (t *labelTable) slot(k int32) int {
	mask := uint32(len(t.keys) - 1)
	i := uint32(k) * 0x9E3779B9 >> t.shift
	for t.keys[i] != k && t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return int(i)
}

// get returns v's label; v must have one.
func (t *labelTable) get(v int32) int64 { return t.vals[t.slot(v+1)] }

// improve gives v the label d when v has no label or a larger one, and
// reports whether it did: Dijkstra's relax guard in one probe.
func (t *labelTable) improve(v int32, d int64) bool {
	k := v + 1
	i := t.slot(k)
	if t.keys[i] == k {
		if d >= t.vals[i] {
			return false
		}
		t.vals[i] = d
		return true
	}
	if 4*(t.used+1) > 3*len(t.keys) {
		t.grow()
		i = t.slot(k)
	}
	t.keys[i], t.vals[i] = k, d
	t.used++
	return true
}

// grow doubles the table and reinserts every label.
func (t *labelTable) grow() {
	keys, vals := t.keys, t.vals
	t.keys = make([]int32, 2*len(keys))
	t.vals = make([]int64, 2*len(keys))
	t.shift--
	for j, k := range keys {
		if k != 0 {
			i := t.slot(k)
			t.keys[i], t.vals[i] = k, vals[j]
		}
	}
}
