package shard

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/semiring"
)

func randomRel(t *testing.T, seed int64, schema []int, rows, dom int) *relation.Relation[int64] {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder[int64](semiring.Count{}, schema)
	row := make([]int32, len(schema))
	for i := 0; i < rows; i++ {
		for k := range row {
			row[k] = int32(r.Intn(dom))
		}
		b.AddRow(row, int64(1+r.Intn(5)))
	}
	return b.Build()
}

func TestPositions(t *testing.T) {
	schema := []int{1, 4, 7, 9}
	cols, err := Positions(schema, []int{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 {
		t.Fatalf("positions %v, want [1 3]", cols)
	}
	if _, err := Positions(schema, []int{5}); err == nil {
		t.Fatal("missing key variable was accepted")
	}
}

func TestSplitPartitionsAndPreserves(t *testing.T) {
	sc := semiring.Count{}
	rel := randomRel(t, 7, []int{0, 2, 5}, 200, 9)
	for _, w := range []int{1, 2, 8} {
		for _, key := range [][]int{{2}, {0, 5}, {0, 2, 5}, {}} {
			shards, err := Split(sc, rel, key, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) != w {
				t.Fatalf("w=%d: %d shards", w, len(shards))
			}
			total := 0
			merged := relation.NewBuilder[int64](sc, rel.Schema())
			cols, _ := Positions(rel.Schema(), key)
			for wi, s := range shards {
				total += s.Len()
				for i := 0; i < s.Len(); i++ {
					if got := Assign(s.Tuple(i), cols, w); got != wi {
						t.Fatalf("w=%d key=%v: row landed on %d, assigned %d", w, key, wi, got)
					}
					merged.AddRow(s.Tuple(i), s.Value(i))
				}
			}
			if total != rel.Len() {
				t.Fatalf("w=%d key=%v: %d rows across shards, want %d", w, key, total, rel.Len())
			}
			// Disjoint shards re-merge to the original relation exactly.
			if !relation.Equal(sc, merged.Build(), rel) {
				t.Fatalf("w=%d key=%v: shards do not re-merge to the input", w, key)
			}
			// Empty key or one worker: everything on worker 0.
			if len(key) == 0 || w == 1 {
				if shards[0].Len() != rel.Len() {
					t.Fatalf("w=%d key=%v: fallback shard has %d rows", w, key, shards[0].Len())
				}
			}
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	sc := semiring.Count{}
	rel := randomRel(t, 11, []int{1, 3}, 120, 7)
	a, err := Split(sc, rel, []int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(sc, rel, []int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for w := range a {
		if !relation.Equal(sc, a[w], b[w]) {
			t.Fatalf("shard %d differs between identical runs", w)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sc := semiring.Count{}
	cod := Codec[int64]{
		Enc: func(v int64) uint64 { return uint64(v) },
		Dec: func(u uint64) int64 { return int64(u) },
	}
	rels := []*relation.Relation[int64]{
		randomRel(t, 3, []int{0, 1}, 50, 6),
		randomRel(t, 4, []int{2}, 10, 4),
		relation.NewBuilder[int64](sc, []int{0, 1}).Build(), // empty
		relation.Unit(sc, sc.One()),                         // zero arity
	}
	// Negative annotation values must survive the unsigned wire word.
	nb := relation.NewBuilder[int64](sc, []int{0})
	nb.AddRow([]int32{3}, -42)
	rels = append(rels, nb.Build())
	for i, r := range rels {
		buf := Encode(r, cod)
		if len(buf) != EncodedBytes(r.Arity(), r.Len()) {
			t.Fatalf("rel %d: encoded %d bytes, EncodedBytes says %d", i, len(buf), EncodedBytes(r.Arity(), r.Len()))
		}
		got, err := Decode(sc, cod, buf)
		if err != nil {
			t.Fatalf("rel %d: decode: %v", i, err)
		}
		if !relation.Equal(sc, got, r) {
			t.Fatalf("rel %d: round trip changed the relation", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	sc := semiring.Count{}
	cod := Codec[int64]{Enc: func(v int64) uint64 { return uint64(v) }, Dec: func(u uint64) int64 { return int64(u) }}
	buf := Encode(randomRel(t, 5, []int{0, 1}, 8, 5), cod)
	for _, cut := range []int{1, 5, len(buf) - 3} {
		if _, err := Decode(sc, cod, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes was accepted", cut)
		}
	}
}

func TestFloatCodecExactBits(t *testing.T) {
	sp := semiring.SumProduct{}
	cod := Codec[float64]{Enc: math.Float64bits, Dec: math.Float64frombits}
	b := relation.NewBuilder[float64](sp, []int{0})
	b.AddRow([]int32{0}, 0.1)
	b.AddRow([]int32{1}, -1e-300)
	b.AddRow([]int32{2}, math.Inf(1))
	r := b.Build()
	got, err := Decode(sp, cod, Encode(r, cod))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if math.Float64bits(got.Value(i)) != math.Float64bits(r.Value(i)) {
			t.Fatalf("row %d: float bits changed across the wire", i)
		}
	}
}

// assignGolden pins Assign(tuple, cols, workers) at 2, 3 and 8 workers
// for 1–4 key columns, so shard placement — and with it the cluster's
// per-worker wire-byte accounting — cannot drift.
var assignGolden = []struct {
	tuple []int32
	cols  []int
	want  [3]int // workers = 2, 3, 8
}{
	{[]int32{0, 0, 0, 0}, []int{0}, [3]int{1, 1, 5}},
	{[]int32{0, 0, 0, 0}, []int{2}, [3]int{1, 1, 5}},
	{[]int32{0, 0, 0, 0}, []int{0, 1}, [3]int{1, 0, 5}},
	{[]int32{0, 0, 0, 0}, []int{3, 1}, [3]int{1, 0, 5}},
	{[]int32{0, 0, 0, 0}, []int{0, 1, 2}, [3]int{1, 1, 5}},
	{[]int32{0, 0, 0, 0}, []int{3, 1, 0}, [3]int{1, 1, 5}},
	{[]int32{0, 0, 0, 0}, []int{0, 1, 2, 3}, [3]int{1, 0, 5}},
	{[]int32{1, 2, 3, 4}, []int{0}, [3]int{0, 2, 2}},
	{[]int32{1, 2, 3, 4}, []int{2}, [3]int{0, 1, 4}},
	{[]int32{1, 2, 3, 4}, []int{0, 1}, [3]int{0, 0, 4}},
	{[]int32{1, 2, 3, 4}, []int{3, 1}, [3]int{1, 1, 3}},
	{[]int32{1, 2, 3, 4}, []int{0, 1, 2}, [3]int{1, 0, 5}},
	{[]int32{1, 2, 3, 4}, []int{3, 1, 0}, [3]int{0, 2, 0}},
	{[]int32{1, 2, 3, 4}, []int{0, 1, 2, 3}, [3]int{1, 1, 1}},
	{[]int32{7, -1, 42, 1073741824}, []int{0}, [3]int{0, 2, 0}},
	{[]int32{7, -1, 42, 1073741824}, []int{2}, [3]int{1, 0, 7}},
	{[]int32{7, -1, 42, 1073741824}, []int{0, 1}, [3]int{0, 1, 4}},
	{[]int32{7, -1, 42, 1073741824}, []int{3, 1}, [3]int{1, 2, 1}},
	{[]int32{7, -1, 42, 1073741824}, []int{0, 1, 2}, [3]int{0, 2, 2}},
	{[]int32{7, -1, 42, 1073741824}, []int{3, 1, 0}, [3]int{0, 1, 4}},
	{[]int32{7, -1, 42, 1073741824}, []int{0, 1, 2, 3}, [3]int{0, 2, 2}},
	{[]int32{46, 45, 44, 43}, []int{0}, [3]int{1, 1, 3}},
	{[]int32{46, 45, 44, 43}, []int{2}, [3]int{1, 2, 1}},
	{[]int32{46, 45, 44, 43}, []int{0, 1}, [3]int{0, 0, 4}},
	{[]int32{46, 45, 44, 43}, []int{3, 1}, [3]int{1, 1, 3}},
	{[]int32{46, 45, 44, 43}, []int{0, 1, 2}, [3]int{0, 1, 0}},
	{[]int32{46, 45, 44, 43}, []int{3, 1, 0}, [3]int{1, 0, 5}},
	{[]int32{46, 45, 44, 43}, []int{0, 1, 2, 3}, [3]int{1, 0, 1}},
	{[]int32{-7, 100000, 3, 12}, []int{0}, [3]int{1, 1, 7}},
	{[]int32{-7, 100000, 3, 12}, []int{2}, [3]int{0, 1, 4}},
	{[]int32{-7, 100000, 3, 12}, []int{0, 1}, [3]int{0, 1, 2}},
	{[]int32{-7, 100000, 3, 12}, []int{3, 1}, [3]int{0, 2, 0}},
	{[]int32{-7, 100000, 3, 12}, []int{0, 1, 2}, [3]int{1, 1, 7}},
	{[]int32{-7, 100000, 3, 12}, []int{3, 1, 0}, [3]int{0, 2, 6}},
	{[]int32{-7, 100000, 3, 12}, []int{0, 1, 2, 3}, [3]int{1, 2, 3}},
	{[]int32{5, 5, 5, 5}, []int{0}, [3]int{0, 0, 6}},
	{[]int32{5, 5, 5, 5}, []int{2}, [3]int{0, 0, 6}},
	{[]int32{5, 5, 5, 5}, []int{0, 1}, [3]int{1, 1, 5}},
	{[]int32{5, 5, 5, 5}, []int{3, 1}, [3]int{1, 1, 5}},
	{[]int32{5, 5, 5, 5}, []int{0, 1, 2}, [3]int{0, 0, 6}},
	{[]int32{5, 5, 5, 5}, []int{3, 1, 0}, [3]int{0, 0, 6}},
	{[]int32{5, 5, 5, 5}, []int{0, 1, 2, 3}, [3]int{1, 2, 5}},
}

func TestAssignGolden(t *testing.T) {
	for _, g := range assignGolden {
		for i, workers := range []int{2, 3, 8} {
			if got := Assign(g.tuple, g.cols, workers); got != g.want[i] {
				t.Errorf("Assign(%v, %v, %d) = %d, want %d", g.tuple, g.cols, workers, got, g.want[i])
			}
		}
	}
	if Assign([]int32{1, 2}, nil, 8) != 0 || Assign([]int32{1, 2}, []int{0}, 1) != 0 {
		t.Error("an empty key or a single worker must place every tuple on worker 0")
	}
}
