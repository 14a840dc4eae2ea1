package relation

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// The parallel≡sequential axis of the kernel equivalence properties: the
// partitioned operators must be BIT-identical to the sequential ones —
// not merely semiring-Equal (whose float comparison tolerates
// re-association) but identical schema, row buffer, and value slices.

func bitIdentical[T comparable](a, b *Relation[T]) bool {
	return slices.Equal(a.schema, b.schema) &&
		slices.Equal(a.rows, b.rows) &&
		slices.Equal(a.vals, b.vals)
}

// nonPrefixPairs are the schema shapes that dispatch to the hash join
// (shared variables not a prefix of both operands), the shapes the
// partitioned join serves — from one shared column up to keys wider
// than one packed word (3 and 4 shared columns).
var nonPrefixPairs = [][2][]int{
	{{0, 1}, {1, 2}},
	{{1, 2}, {0, 2}},
	{{0, 1, 2}, {2}},
	{{0, 2}, {1, 2}},
	{{0, 1, 3}, {2, 3}},
	{{0, 1, 2, 3}, {1, 2, 3, 4}},
	{{1, 2, 3, 5}, {0, 1, 2, 3}},
	{{0, 1, 2, 3, 4}, {1, 2, 3, 4, 5}},
	{{0, 2, 4, 6}, {1, 2, 4, 6, 7}},
}

func checkJoinParallelIdentical[T comparable](t *testing.T, s semiring.Semiring[T], val func(*rand.Rand) T, seed int64) {
	t.Helper()
	prev := exec.SetWorkers(4)
	defer exec.SetWorkers(prev)
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 25; trial++ {
		for pi, pair := range nonPrefixPairs {
			a := randRelT(s, r, pair[0], 1+r.Intn(40), 2+r.Intn(4), val)
			b := randRelT(s, r, pair[1], 1+r.Intn(40), 2+r.Intn(4), val)
			shared := hypergraph.IntersectSorted(a.Schema(), b.Schema())
			want := joinHash(s, a, b, shared)
			for _, parts := range []int{2, 3, 7} {
				got := joinHashParallel(s, a, b, shared, parts)
				if !bitIdentical(got, want) {
					t.Fatalf("pair %d trial %d parts %d: parallel join not bit-identical\n got=%v\nwant=%v",
						pi, trial, parts, got, want)
				}
			}
		}
	}
}

func TestJoinParallelBitIdenticalBool(t *testing.T) {
	checkJoinParallelIdentical[bool](t, semiring.Bool{}, func(r *rand.Rand) bool { return r.Intn(4) > 0 }, 201)
}

func TestJoinParallelBitIdenticalCount(t *testing.T) {
	checkJoinParallelIdentical[int64](t, semiring.Count{}, func(r *rand.Rand) int64 { return int64(r.Intn(5)) - 1 }, 202)
}

func TestJoinParallelBitIdenticalSumProduct(t *testing.T) {
	// Float values make bit-identity demand the exact sequential
	// ⊕-combination order inside every duplicate group.
	checkJoinParallelIdentical[float64](t, semiring.SumProduct{}, func(r *rand.Rand) float64 { return r.Float64() }, 203)
}

func TestJoinParallelBitIdenticalMinPlus(t *testing.T) {
	checkJoinParallelIdentical[float64](t, semiring.MinPlus{}, func(r *rand.Rand) float64 { return float64(r.Intn(40)) / 8 }, 204)
}

// TestJoinPublicDispatchAboveThreshold drives the public Join above the
// size threshold so the partitioned path engages end to end, and checks
// bit-identity against a single-worker run of the same call.
func TestJoinPublicDispatchAboveThreshold(t *testing.T) {
	s := semiring.SumProduct{}
	r := rand.New(rand.NewSource(205))
	n := parallelMinTuples // a.Len()+b.Len() crosses the threshold
	a := randRelT[float64](s, r, []int{0, 1}, n, 300, func(r *rand.Rand) float64 { return r.Float64() })
	b := randRelT[float64](s, r, []int{1, 2}, n, 300, func(r *rand.Rand) float64 { return r.Float64() })

	prev := exec.SetWorkers(1)
	want := Join(s, a, b)
	exec.SetWorkers(8)
	got := Join(s, a, b)
	exec.SetWorkers(prev)

	if got.Len() == 0 {
		t.Fatal("degenerate test: empty join output")
	}
	if !bitIdentical(got, want) {
		t.Fatalf("8-worker Join not bit-identical to 1-worker Join (n=%d vs %d)", got.Len(), want.Len())
	}
}

func TestEliminateVarParallelBitIdentical(t *testing.T) {
	s := semiring.SumProduct{}
	add := semiring.AddOf[float64](s)
	mul := semiring.MulOf[float64](s)
	r := rand.New(rand.NewSource(206))
	for trial := 0; trial < 20; trial++ {
		// Arity 3, 4 and 5 leave 2, 3 and 4 remaining columns: one packed
		// word and the keys wider than it.
		schema := []int{0, 1, 2, 3, 4}[:3+trial%3]
		rel := randRelT[float64](s, r, schema, 30+r.Intn(120), 2+r.Intn(3),
			func(r *rand.Rand) float64 { return r.Float64() })
		for _, v := range []int{0, 1} { // vcol < arity-1: the grouping pass
			rest := hypergraph.DiffSorted(rel.Schema(), []int{v})
			restCols, err := columnsOf(rel.Schema(), rest)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []semiring.Op[float64]{add, mul} {
				for _, domSize := range []int{2, 3, 1000} {
					want, err := EliminateVar(s, rel, v, op, domSize)
					if err != nil {
						t.Fatal(err)
					}
					for _, parts := range []int{2, 3, 7} {
						got := eliminateGroupParallel(s, rel, rest, restCols, op, domSize, parts)
						if !bitIdentical(got, want) {
							t.Fatalf("trial %d arity=%d v=%d parts=%d product=%v dom=%d: not bit-identical",
								trial, len(schema), v, parts, op.IsProduct(), domSize)
						}
					}
				}
			}
		}
	}
}

// TestEliminateVarPublicDispatchAboveThreshold crosses the threshold
// through the public EliminateVar and compares worker counts.
func TestEliminateVarPublicDispatchAboveThreshold(t *testing.T) {
	s := semiring.Count{}
	add := semiring.AddOf[int64](s)
	r := rand.New(rand.NewSource(207))
	rel := randRelT[int64](s, r, []int{0, 1, 2}, parallelMinTuples+100, 40,
		func(r *rand.Rand) int64 { return int64(r.Intn(7)) - 2 })

	prev := exec.SetWorkers(1)
	want, err := EliminateVar(s, rel, 0, add, 1000)
	exec.SetWorkers(8)
	got, err2 := EliminateVar(s, rel, 0, add, 1000)
	exec.SetWorkers(prev)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if got.Len() == 0 {
		t.Fatal("degenerate test: empty elimination output")
	}
	if !bitIdentical(got, want) {
		t.Fatal("8-worker EliminateVar not bit-identical to 1-worker")
	}
}
