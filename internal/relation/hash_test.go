package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/keys"
	"repro/internal/semiring"
)

// Keys wider than keys.MaxPacked hash into one word and may collide;
// every hash kernel must then confirm a chain candidate's columns
// before counting it. These tests build real collisions and fuzz the
// kernels against the nested-loop and brute-force references at key
// widths 0–4.

// hashMul mirrors the per-column multiplier of keys.Hash's wide mix
// (h = (h ^ Pack1(v)) * hashMul; h ^= h >> 32); collidingKeys inverts
// that step to construct collisions, and verifies them through the
// public keys.Hash.
const hashMul = 0x9e3779b97f4a7c15

// unmix inverts one wide mixing step: it returns h ^ Pack1(v) for the
// column v that produced h.
func unmix(h uint64) uint64 {
	inv := uint64(hashMul) // Newton's iteration for the inverse mod 2⁶⁴
	for i := 0; i < 5; i++ {
		inv *= 2 - hashMul*inv
	}
	return (h ^ h>>32) * inv
}

// collidingKeys returns two distinct 3-column keys with equal
// keys.Hash. The state after two columns, s(a, b), is recovered from
// Hash(a, b, 0); two prefixes whose states agree on the high 32 bits
// collide once the third columns absorb the low-bit difference
// (birthday search over ~2¹⁶ prefixes).
func collidingKeys(t *testing.T) (u, v []int32) {
	t.Helper()
	seen := make(map[uint32][3]uint64)
	for a := int32(0); a < 2048; a++ {
		for b := int32(0); b < 2048; b++ {
			st := unmix(keys.Hash([]int32{a, b, 0}, nil)) ^ keys.Pack1(0)
			if prev, ok := seen[uint32(st>>32)]; ok {
				diff := uint32(prev[2] ^ st)
				u = []int32{int32(prev[0]), int32(prev[1]), 0}
				v = []int32{a, b, keys.Unpack1(keys.Pack1(0) ^ uint64(diff))}
				if keys.Hash(u, nil) != keys.Hash(v, nil) {
					t.Fatalf("constructed keys %v, %v do not collide: keys.Hash's wide mix changed", u, v)
				}
				return u, v
			}
			seen[uint32(st>>32)] = [3]uint64{uint64(a), uint64(b), st}
		}
	}
	t.Fatal("no colliding prefixes found")
	return nil, nil
}

// TestHashCollisionsNeverMerge drives distinct tuples sharing one hash
// value through every hash kernel, at 3 and 4 key columns: probes and
// the group-by must match only equal columns.
func TestHashCollisionsNeverMerge(t *testing.T) {
	u, v := collidingKeys(t)
	s := semiring.Count{}
	for _, width := range []int{3, 4} {
		ku := append(append([]int32(nil), u...), 9)[:width]
		kv := append(append([]int32(nil), v...), 9)[:width]
		if keys.Hash(ku, nil) != keys.Hash(kv, nil) {
			t.Fatalf("width %d: keys do not collide", width)
		}
		shared := make([]int, width) // variables 1..width
		for i := range shared {
			shared[i] = i + 1
		}
		// a(0, shared…) and b(shared…, 10): the key sits behind column 0
		// in a, so Join and Semijoin take the hash path.
		ab := NewBuilder[int64](s, append([]int{0}, shared...))
		bb := NewBuilder[int64](s, append(append([]int(nil), shared...), 10))
		onlyV := NewBuilder[int64](s, append(append([]int(nil), shared...), 10))
		for x := 0; x < 3; x++ {
			ab.AddRow(append([]int32{int32(x)}, ku...), int64(1+x))
			ab.AddRow(append([]int32{int32(x)}, kv...), int64(10+x))
			bb.AddRow(append(append([]int32(nil), ku...), int32(x)), int64(100+x))
			bb.AddRow(append(append([]int32(nil), kv...), int32(x+5)), int64(1000+x))
			onlyV.AddRow(append(append([]int32(nil), kv...), int32(x)), 1)
		}
		a, b, bv := ab.Build(), bb.Build(), onlyV.Build()

		want := joinNestedLoop(s, a, b)
		if want.Len() != 18 {
			t.Fatalf("width %d: reference join has %d rows, want 18", width, want.Len())
		}
		checkHashKernels(t, fmt.Sprintf("width %d", width), s, a, b, shared)
		if got := semijoinHash(a, bv, shared); got.Len() != 3 || !bitIdentical(got, semijoinNestedLoop(a, bv, shared)) {
			t.Fatalf("width %d: semijoin kept %d rows, want the 3 rows keyed %v", width, got.Len(), kv)
		}
		cols, _ := columnsOf(a.schema, shared)
		if g := groupRows(a, cols, nil, semiring.AddOf[int64](s)); len(g.first) != 2 {
			t.Fatalf("width %d: %d groups over two colliding keys, want 2", width, len(g.first))
		}
	}
}

// bruteEliminate is the reference group-by: fold each key's values in
// row order, then keep the surviving groups through the Builder.
func bruteEliminate[T any](s semiring.Semiring[T], r *Relation[T], v int, op semiring.Op[T], domSize int) *Relation[T] {
	var rest []int
	var cols []int
	for c, x := range r.schema {
		if x != v {
			rest = append(rest, x)
			cols = append(cols, c)
		}
	}
	type group struct {
		key   []int32
		val   T
		count int
	}
	var gs []*group
	byKey := map[string]*group{}
	for i := 0; i < r.Len(); i++ {
		key := make([]int32, len(cols))
		for k, c := range cols {
			key[k] = r.Tuple(i)[c]
		}
		g, ok := byKey[fmt.Sprint(key)]
		if !ok {
			g = &group{key: key, val: op.Identity()}
			byKey[fmt.Sprint(key)] = g
			gs = append(gs, g)
		}
		g.val = op.Combine(g.val, r.vals[i])
		g.count++
	}
	b := NewBuilder(s, rest)
	for _, g := range gs {
		if op.IsProduct() && g.count < domSize {
			continue
		}
		b.AddRow(g.key, g.val)
	}
	return b.Build()
}

// checkHashKernels compares joinHash, semijoinHash and EliminateVar's
// group-by — sequential and partitioned — against the references.
func checkHashKernels(t *testing.T, name string, s semiring.Count, a, b *Relation[int64], shared []int) {
	t.Helper()
	wantJ := joinNestedLoop(s, a, b)
	wantS := semijoinNestedLoop(a, b, shared)
	if got := joinHash(s, a, b, shared); !bitIdentical(got, wantJ) {
		t.Fatalf("%s: joinHash != nested loop\n got=%v\nwant=%v", name, got, wantJ)
	}
	if got := semijoinHash(a, b, shared); !bitIdentical(got, wantS) {
		t.Fatalf("%s: semijoinHash != nested loop\n got=%v\nwant=%v", name, got, wantS)
	}
	for _, parts := range []int{2, 3} {
		if got := joinHashParallel(s, a, b, shared, parts); !bitIdentical(got, wantJ) {
			t.Fatalf("%s parts=%d: joinHashParallel != nested loop", name, parts)
		}
		if got := semijoinHashParallel(a, b, shared, parts); !bitIdentical(got, wantS) {
			t.Fatalf("%s parts=%d: semijoinHashParallel != nested loop", name, parts)
		}
	}
	v := a.schema[0] // eliminating a's leading variable groups on the rest
	for _, op := range []semiring.Op[int64]{semiring.AddOf[int64](s), semiring.MulOf[int64](s)} {
		want := bruteEliminate(s, a, v, op, 2)
		got, err := EliminateVar(s, a, v, op, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, want) {
			t.Fatalf("%s product=%v: EliminateVar != brute force\n got=%v\nwant=%v", name, op.IsProduct(), got, want)
		}
		if len(a.schema) > 1 {
			restCols, _ := columnsOf(a.schema, a.schema[1:])
			for _, parts := range []int{2, 3} {
				if got := eliminateGroupParallel(s, a, a.schema[1:], restCols, op, 2, parts); !bitIdentical(got, want) {
					t.Fatalf("%s parts=%d product=%v: eliminateGroupParallel != brute force", name, parts, op.IsProduct())
				}
			}
		}
	}
}

// FuzzHashKernels checks the hash join, hash semijoin and the
// group-by against their references at key widths 0–4: cfg[0] picks the
// width, data fills a(0, 1..w) and b(1..w, 20) over a small domain so
// keys repeat and values cancel.
func FuzzHashKernels(f *testing.F) {
	for w := byte(0); w <= 4; w++ {
		f.Add([]byte{w}, []byte{1, 2, 0, 1, 2, 1, 1, 1, 2, 2, 0, 0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 1})
	}
	f.Add([]byte{3}, []byte{})
	f.Add([]byte{4}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, cfg, data []byte) {
		w := 3
		if len(cfg) > 0 {
			w = int(cfg[0]) % 5
		}
		shared := make([]int, w)
		for i := range shared {
			shared[i] = i + 1
		}
		s := semiring.Count{}
		ab := NewBuilder[int64](s, append([]int{0}, shared...))
		bb := NewBuilder[int64](s, append(append([]int(nil), shared...), 20))
		row := make([]int32, w+1)
		for i := 0; i+w+1 <= len(data); i += w + 1 {
			for k := range row {
				row[k] = int32(data[i+k] % 3)
			}
			v := int64(data[i]%4) - 1 // {-1,0,1,2}: exercises zero-drop
			if (i/(w+1))%2 == 0 {
				ab.AddRow(row, v)
			} else {
				bb.AddRow(row, v)
			}
		}
		checkHashKernels(t, fmt.Sprintf("width %d", w), s, ab.Build(), bb.Build(), shared)
	})
}

// TestHashKernelsRandomWidths runs the fuzz property over seeded random
// inputs at every width, so the plain test run covers it too.
func TestHashKernelsRandomWidths(t *testing.T) {
	s := semiring.Count{}
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		w := trial % 5
		shared := make([]int, w)
		for i := range shared {
			shared[i] = i + 1
		}
		val := func(r *rand.Rand) int64 { return int64(r.Intn(4)) - 1 }
		a := randRelT[int64](s, r, append([]int{0}, shared...), r.Intn(60), 2+r.Intn(2), val)
		b := randRelT[int64](s, r, append(append([]int(nil), shared...), 20), r.Intn(60), 2+r.Intn(2), val)
		checkHashKernels(t, fmt.Sprintf("trial %d width %d", trial, w), s, a, b, shared)
	}
}
