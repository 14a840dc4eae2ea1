// Package keys provides the one tuple-key scheme shared by the relation
// kernel, the shard placement and the incremental views.
//
// The hot paths of the paper's evaluation — Join/Semijoin/EliminateVar
// inside every star reduction of Theorem 4.1, and the keyed
// converge-casts of Theorem 3.11 — all need to identify tuples by a
// subset of their columns, at any O(1) width. Every such lookup goes
// through one scheme:
//
//   - Hash maps the selected columns to a uint64 without allocating. Up
//     to MaxPacked columns it is the exact, order-preserving PackCols
//     word; wider keys are mixed into one word and may collide.
//   - Table chains ids by that hash. A chain lists candidates only: a
//     caller counts a hit after EqualCols confirms the columns, so a
//     collision can never merge two distinct tuples.
//   - Chunk places a key on one of n chunks (shards, partitions,
//     Steiner trees) by FNV-1a over the columns' big-endian bytes.
//
// Packed keys are order-preserving: if tuple u precedes tuple v in the
// lexicographic (signed int32) order the relations maintain, then
// Pack(u) < Pack(v) as uint64. This is what lets the relation kernel
// sort and merge on packed keys directly.
package keys

import "math/bits"

// MaxPacked is the largest number of int32 columns a uint64 key can hold.
const MaxPacked = 2

// signBias flips the sign bit so that unsigned comparison of packed
// words agrees with signed comparison of the original int32 values.
const signBias = 0x80000000

// Pack1 packs one int32 into an order-preserving uint64 key.
func Pack1(x int32) uint64 { return uint64(uint32(x) ^ signBias) }

// Pack2 packs two int32s; uint64 order equals lexicographic (x, y) order.
func Pack2(x, y int32) uint64 { return Pack1(x)<<32 | Pack1(y) }

// Unpack1 inverts Pack1.
func Unpack1(k uint64) int32 { return int32(uint32(k) ^ signBias) }

// Unpack2 inverts Pack2.
func Unpack2(k uint64) (int32, int32) {
	return Unpack1(k >> 32), Unpack1(k & 0xffffffff)
}

// PackCols packs the selected columns of a tuple (all columns when cols
// is nil). len(cols) (or len(t)) must be ≤ MaxPacked; zero columns pack
// to the zero key.
func PackCols(t []int32, cols []int) uint64 {
	if cols == nil {
		switch len(t) {
		case 0:
			return 0
		case 1:
			return Pack1(t[0])
		case 2:
			return Pack2(t[0], t[1])
		}
		//faqlint:allow nopanic(programmer-error precondition: callers gate on MaxPacked before packing)
		panic("keys: PackCols on more than MaxPacked columns")
	}
	switch len(cols) {
	case 0:
		return 0
	case 1:
		return Pack1(t[cols[0]])
	case 2:
		return Pack2(t[cols[0]], t[cols[1]])
	}
	//faqlint:allow nopanic(programmer-error precondition: callers gate on MaxPacked before packing)
	panic("keys: PackCols on more than MaxPacked columns")
}

// hashMul is an odd 64-bit multiplier (2⁶⁴/φ): multiplying by it is a
// bijection on uint64 that spreads low-bit differences upward.
const hashMul = 0x9e3779b97f4a7c15

// Hash returns the lookup key of the selected columns of t (all columns
// when cols is nil). Up to MaxPacked columns it is exactly PackCols, so
// it is injective there; wider keys fold every column into one word and
// may collide, which is why Table callers confirm hits with EqualCols.
func Hash(t []int32, cols []int) uint64 {
	n := len(cols)
	if cols == nil {
		n = len(t)
	}
	if n <= MaxPacked {
		return PackCols(t, cols)
	}
	var h uint64
	for i := 0; i < n; i++ {
		h = (h ^ Pack1(col(t, cols, i))) * hashMul
		h ^= h >> 32
	}
	return h
}

// EqualCols reports whether t's columns tcols equal u's columns ucols
// pairwise (nil selects all columns; both sides have the same width).
func EqualCols(t []int32, tcols []int, u []int32, ucols []int) bool {
	n := len(tcols)
	if tcols == nil {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if col(t, tcols, i) != col(u, ucols, i) {
			return false
		}
	}
	return true
}

// col returns the i-th selected column of t (column i when cols is nil).
func col(t []int32, cols []int, i int) int32 {
	if cols == nil {
		return t[i]
	}
	return t[cols[i]]
}

// FNV-1a (32-bit) parameters.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// Chunk deterministically assigns the selected columns of t (all
// columns when cols is nil) to one of n chunks: FNV-1a over the
// columns' big-endian bytes, mod n. Every player and worker computes
// this locally; it mirrors the paper's splitting of Dom(A) across the
// directed paths W₁, W₂ in Example 2.3.
func Chunk(t []int32, cols []int, n int) int {
	if n <= 1 {
		return 0
	}
	w := len(cols)
	if cols == nil {
		w = len(t)
	}
	h := uint32(fnvOffset)
	for i := 0; i < w; i++ {
		v := uint32(col(t, cols, i))
		for shift := 24; shift >= 0; shift -= 8 {
			h ^= uint32(byte(v >> shift))
			h *= fnvPrime
		}
	}
	return int(h % uint32(n))
}

// Table is the chained hash table every keyed lookup goes through:
// head maps a Hash value to the oldest id chained under it, next links
// each id to the following one under the same hash (-1 ends a chain),
// and tail[first] is the newest id of the chain starting at first. Ids
// are dense, assigned 0, 1, 2, … by Add, so callers keep per-id state
// in parallel slices; a chain lists its ids in ascending order, which
// keeps probe output in input order. A chain holds candidates only.
type Table struct {
	head map[uint64]int32
	next []int32
	tail []int32
}

// NewTable returns a table presized for n ids.
func NewTable(n int) Table {
	return Table{head: make(map[uint64]int32, n), next: make([]int32, 0, n), tail: make([]int32, 0, n)}
}

// Add appends the next id to the chain of hash h and returns it.
func (t *Table) Add(h uint64) int32 {
	id := int32(len(t.next))
	t.next = append(t.next, -1)
	t.tail = append(t.tail, id)
	if first, ok := t.head[h]; ok {
		t.next[t.tail[first]] = id
		t.tail[first] = id
	} else {
		t.head[h] = id
	}
	return id
}

// First returns the oldest id chained under h, or -1.
func (t *Table) First(h uint64) int32 {
	if id, ok := t.head[h]; ok {
		return id
	}
	return -1
}

// Next returns the id chained after id, or -1 at the chain's end.
func (t *Table) Next(id int32) int32 { return t.next[id] }

// Len returns the number of ids added.
func (t *Table) Len() int { return len(t.next) }

// Bits returns the number of bits needed to represent x (at least 1),
// the channel-cost helper used when sizing protocol items.
func Bits(x int) int {
	if x <= 1 {
		return 1
	}
	return bits.Len(uint(x))
}
