package keys

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

func TestPackRoundTrip(t *testing.T) {
	vals := []int32{-1 << 31, -7, -1, 0, 1, 42, 1<<31 - 1}
	for _, x := range vals {
		if got := Unpack1(Pack1(x)); got != x {
			t.Errorf("Unpack1(Pack1(%d)) = %d", x, got)
		}
		for _, y := range vals {
			gx, gy := Unpack2(Pack2(x, y))
			if gx != x || gy != y {
				t.Errorf("Unpack2(Pack2(%d, %d)) = %d, %d", x, y, gx, gy)
			}
		}
	}
}

func TestPackOrderPreserving(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := int32(r.Int63()), int32(r.Int63())
		c, d := int32(r.Int63()), int32(r.Int63())
		lex := a < c || (a == c && b < d)
		packed := Pack2(a, b) < Pack2(c, d)
		if lex != packed {
			t.Fatalf("order mismatch: (%d,%d) vs (%d,%d): lex=%v packed=%v", a, b, c, d, lex, packed)
		}
	}
}

func TestPackCols(t *testing.T) {
	row := []int32{10, 20, 30}
	if PackCols(row, []int{1}) != Pack1(20) {
		t.Error("PackCols 1-col mismatch")
	}
	if PackCols(row, []int{0, 2}) != Pack2(10, 30) {
		t.Error("PackCols 2-col mismatch")
	}
	if PackCols(row[:2], nil) != Pack2(10, 20) {
		t.Error("PackCols nil-cols mismatch")
	}
	if PackCols(nil, []int{}) != 0 {
		t.Error("PackCols empty should be 0")
	}
}

// TestHashPackedExact: up to MaxPacked columns Hash is exactly
// PackCols, so every packed lookup keeps its injective key.
func TestHashPackedExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		row := []int32{int32(r.Int63()), int32(r.Intn(50)) - 25, int32(r.Intn(1000))}
		for _, cols := range [][]int{{}, {1}, {2, 0}} {
			if Hash(row, cols) != PackCols(row, cols) {
				t.Fatalf("Hash(%v, %v) != PackCols", row, cols)
			}
		}
		if Hash(row[:2], nil) != PackCols(row[:2], nil) {
			t.Fatalf("Hash(%v, nil) != PackCols", row[:2])
		}
	}
}

// TestHashWide: wide keys depend on every selected column and agree
// between nil and explicit all-column selections.
func TestHashWide(t *testing.T) {
	row := []int32{3, 1, 4, 1}
	if Hash(row, nil) != Hash(row, []int{0, 1, 2, 3}) {
		t.Fatal("nil and explicit all-column hashes differ")
	}
	seen := map[uint64][]int32{}
	for a := int32(0); a < 20; a++ {
		for b := int32(0); b < 20; b++ {
			for c := int32(0); c < 20; c++ {
				k := []int32{a, b, c}
				h := Hash(k, nil)
				if prev, dup := seen[h]; dup {
					t.Fatalf("small-domain keys %v and %v collide", prev, k)
				}
				seen[h] = k
			}
		}
	}
}

// fnvChunk is the reference placement: hash/fnv's FNV-1a over the
// columns' big-endian bytes, mod n.
func fnvChunk(vals []int32, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	for _, v := range vals {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(v)))
	}
	return int(h.Sum32() % uint32(n))
}

// TestChunkMatchesFNV pins Chunk to the reference FNV-1a placement at
// key widths 0–4, with explicit and nil column selections.
func TestChunkMatchesFNV(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		row := []int32{int32(r.Int63()), int32(r.Intn(100)), -int32(r.Intn(100)), int32(r.Intn(7)), 0}
		for w := 0; w <= 4; w++ {
			cols := r.Perm(len(row))[:w]
			sel := make([]int32, w)
			for k, c := range cols {
				sel[k] = row[c]
			}
			for n := 1; n <= 9; n++ {
				if got, want := Chunk(row, cols, n), fnvChunk(sel, n); got != want {
					t.Fatalf("Chunk(%v, %v, %d) = %d, want %d", row, cols, n, got, want)
				}
				if got, want := Chunk(sel, nil, n), fnvChunk(sel, n); got != want {
					t.Fatalf("Chunk(%v, nil, %d) = %d, want %d", sel, n, got, want)
				}
			}
		}
	}
}

// TestTableChainsCandidates: ids sharing one hash all chain together;
// EqualCols is what tells the distinct tuples apart.
func TestTableChainsCandidates(t *testing.T) {
	rows := [][]int32{{1, 2, 3}, {1, 2, 4}, {9, 9, 9}, {1, 2, 3}}
	tab := NewTable(len(rows))
	for i := range rows {
		if id := tab.Add(7); int(id) != i {
			t.Fatalf("Add returned id %d, want %d", id, i)
		}
	}
	if tab.First(8) != -1 {
		t.Fatal("unused hash has a chain")
	}
	var chain, hits []int32
	probe := []int32{1, 2, 3}
	for id := tab.First(7); id >= 0; id = tab.Next(id) {
		chain = append(chain, id)
		if EqualCols(rows[id], nil, probe, nil) {
			hits = append(hits, id)
		}
	}
	if len(chain) != len(rows) || tab.Len() != len(rows) || chain[0] != 0 || chain[3] != 3 {
		t.Fatalf("chain %v, want all %d ids in ascending order", chain, len(rows))
	}
	if len(hits) != 2 || hits[0] != 0 || hits[1] != 3 {
		t.Fatalf("hits = %v, want [0 3]", hits)
	}
	if !EqualCols([]int32{5, 6, 7}, []int{2, 0}, []int32{7, 0, 5}, []int{0, 2}) {
		t.Fatal("EqualCols on column selections")
	}
}

func TestBits(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9}
	for x, want := range cases {
		if got := Bits(x); got != want {
			t.Errorf("Bits(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestChunkZeroColumns(t *testing.T) {
	for n := 1; n <= 5; n++ {
		if Chunk([]int32{4, 2}, []int{}, n) != fnvChunk(nil, n) {
			t.Fatalf("0-col chunk disagrees with empty-string FNV at n=%d", n)
		}
	}
}
