package protocol

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
)

// TestCodecsChunkLikeKeys: both converge-cast codecs place a key
// exactly where keys.Chunk places the same columns, so protocol
// chunking agrees with shard and partition placement at every width.
func TestCodecsChunkLikeKeys(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	str := strCodec()
	for i := 0; i < 300; i++ {
		row := []int32{int32(r.Intn(1 << 20)), int32(r.Intn(50)), int32(r.Intn(3)), int32(r.Int31()), int32(r.Intn(9))}
		for w := 0; w <= 4; w++ {
			cols := r.Perm(len(row))[:w]
			for n := 1; n <= 8; n++ {
				want := keys.Chunk(row, cols, n)
				if got := str.chunk(str.encode(row, cols), n); got != want {
					t.Fatalf("string codec places %v/%v at %d, keys.Chunk at %d (n=%d)", row, cols, got, want, n)
				}
				if w <= keys.MaxPacked {
					u := u64Codec(w)
					if got := u.chunk(u.encode(row, cols), n); got != want {
						t.Fatalf("packed codec places %v/%v at %d, keys.Chunk at %d (n=%d)", row, cols, got, want, n)
					}
				}
			}
		}
	}
}

// TestStringKeysInjectiveAndOrdered: the wide converge-cast key is a
// wire item, so distinct tuples must encode distinctly and sorted keys
// must list the tuples lexicographically.
func TestStringKeysInjectiveAndOrdered(t *testing.T) {
	var tuples [][]int32
	for a := int32(0); a < 4; a++ {
		for b := int32(0); b < 4; b++ {
			for c := int32(0); c < 300; c += 37 {
				tuples = append(tuples, []int32{c, b, a})
			}
		}
	}
	byKey := map[string][]int32{}
	var ks []string
	for _, tu := range tuples {
		k := encodeCols(tu, []int{2, 1, 0})
		if prev, dup := byKey[k]; dup {
			t.Fatalf("tuples %v and %v share key %q", prev, tu, k)
		}
		byKey[k] = tu
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for i := 1; i < len(ks); i++ {
		p, q := byKey[ks[i-1]], byKey[ks[i]]
		if p[2] > q[2] || (p[2] == q[2] && (p[1] > q[1] || (p[1] == q[1] && p[0] > q[0]))) {
			t.Fatalf("sorted keys list %v before %v", p, q)
		}
	}
	if encodeCols([]int32{7, 8, 9}, nil) != encodeCols([]int32{7, 8, 9}, []int{0, 1, 2}) {
		t.Fatal("nil columns must encode every column")
	}
}
