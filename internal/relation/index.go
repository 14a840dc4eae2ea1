package relation

import (
	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/keys"
	"repro/internal/semiring"
)

// HashIndex is the kernel's one lookup structure: rows of a relation
// chained by keys.Hash of their key columns (a keys.Table), pinned to
// the exact row buffer it indexed. joinHash, semijoinHash and their
// partitioned twins build one per call (or per partition); a standing
// view (internal/delta) keeps one across any number of value-only
// updates — PatchAdd-produced relations share their input's row
// buffer — and rebuilds it only when a fallback merge rewrites the
// rows, turning the O(|b|) build side of every point-delta join into a
// one-time cost. Keys of any width index; a chain entry counts as a hit
// only after its key columns compare equal.
type HashIndex struct {
	shared []int   // key variables (BuildHashIndex only)
	cols   []int   // key columns of the indexed rows
	arity  int     // width of one indexed row
	rows   []int32 // the indexed row buffer, also its identity
	ids    []int32 // relation row of chain id x; nil when id x is row x
	tab    keys.Table
}

// BuildHashIndex indexes b's rows on the given shared variables (a
// sorted subset of b's schema, possibly empty). Returns nil only when a
// variable is missing from b's schema; callers fall back to the
// one-shot Join.
func BuildHashIndex[T any](b *Relation[T], shared []int) *HashIndex {
	cols, err := columnsOf(b.schema, shared)
	if err != nil {
		return nil
	}
	ix := indexRows(b, cols, nil)
	ix.shared = append([]int(nil), shared...)
	return ix
}

// indexRows chains the listed rows of r (every row when ids is nil) on
// the key columns cols.
func indexRows[T any](r *Relation[T], cols []int, ids []int32) *HashIndex {
	n := r.Len()
	if ids != nil {
		n = len(ids)
	}
	ix := &HashIndex{cols: cols, arity: len(r.schema), rows: r.rows, ids: ids, tab: keys.NewTable(n)}
	for x := int32(0); int(x) < n; x++ {
		ix.tab.Add(keys.Hash(ix.tuple(x), cols))
	}
	return ix
}

// row returns the relation row of chain id x.
func (ix *HashIndex) row(x int32) int {
	if ix.ids == nil {
		return int(x)
	}
	return int(ix.ids[x])
}

func (ix *HashIndex) tuple(x int32) []int32 {
	i := ix.row(x) * ix.arity
	return ix.rows[i : i+ix.arity]
}

// match returns the first chain id from x on whose key columns equal
// t's columns tcols, or -1.
func (ix *HashIndex) match(x int32, t []int32, tcols []int) int32 {
	for ; x >= 0; x = ix.tab.Next(x) {
		if keys.EqualCols(ix.tuple(x), ix.cols, t, tcols) {
			return x
		}
	}
	return -1
}

// lookup returns the first chain id whose key equals t's columns tcols,
// or -1; ix.match(ix.tab.Next(x), t, tcols) continues the scan.
func (ix *HashIndex) lookup(t []int32, tcols []int) int32 {
	return ix.match(ix.tab.First(keys.Hash(t, tcols)), t, tcols)
}

// IndexValidFor reports whether ix still serves joins against b on the
// given shared variables: the same key columns over the identical row
// buffer and row count. Value-only updates (PatchAdd fast path) keep an
// index valid; any merge that allocates new rows invalidates it.
func IndexValidFor[T any](ix *HashIndex, b *Relation[T], shared []int) bool {
	if ix == nil || len(ix.rows) != len(b.rows) || ix.tab.Len() != b.Len() {
		return false
	}
	if len(b.rows) != 0 && &ix.rows[0] != &b.rows[0] {
		return false
	}
	if len(ix.shared) != len(shared) {
		return false
	}
	for i := range shared {
		if ix.shared[i] != shared[i] {
			return false
		}
	}
	return true
}

// JoinIndexed returns Join(s, a, b), probing a prebuilt index of b
// instead of building a fresh hash side: O(|a| · fanout) per call. It
// runs joinHash's probe loop and canonicalizes through the same
// Builder, so the output is bit-identical to Join's; an index that no
// longer serves b falls back to the one-shot Join.
func JoinIndexed[T any](s semiring.Semiring[T], a, b *Relation[T], ix *HashIndex) *Relation[T] {
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	if !IndexValidFor(ix, b, shared) {
		return Join(s, a, b)
	}
	joinSite.Inject()
	outSchema := hypergraph.UnionSorted(a.schema, b.schema)
	aCols, _ := columnsOf(a.schema, shared)
	rows, vals := joinProbe(s, a, b, aCols, []*HashIndex{ix}, outputSrcs(outSchema, a.schema, b.schema), 0, a.Len())
	return mergeEmit(s, outSchema, false, rows, vals)
}

// partitionedIndex hash-partitions b's rows by keys.Chunk of the key
// columns and indexes each partition on the pool. A probe for tuple t
// goes to ixs[keys.Chunk(t, cols, len(ixs))]: equal keys chunk alike,
// so every match of t lives in that one partition.
func partitionedIndex[T any](b *Relation[T], bCols []int, parts int) []*HashIndex {
	pool := exec.Default()
	idx := partitionByKey(pool, b, bCols, parts)
	ixs := make([]*HashIndex, parts)
	pool.Map(parts, func(pi int) { ixs[pi] = indexRows(b, bCols, idx[pi]) })
	return ixs
}

// joinProbe joins a's rows [lo, hi) against b through the (possibly
// partitioned) index ixs, emitting in a-row order and, per a-row, in
// chain order. It is the one probe loop of joinHash, JoinIndexed and
// each block of joinHashParallel.
func joinProbe[T any](s semiring.Semiring[T], a, b *Relation[T], aCols []int, ixs []*HashIndex,
	srcs []colSrc, lo, hi int) ([]int32, []T) {
	rows := make([]int32, 0, (hi-lo)*len(srcs))
	vals := make([]T, 0, hi-lo)
	scratch := make([]int32, len(srcs))
	for i := lo; i < hi; i++ {
		ta := a.Tuple(i)
		ix := ixs[keys.Chunk(ta, aCols, len(ixs))]
		for x := ix.lookup(ta, aCols); x >= 0; x = ix.match(ix.tab.Next(x), ta, aCols) {
			j := ix.row(x)
			v := s.Mul(a.vals[i], b.vals[j])
			if s.IsZero(v) {
				continue
			}
			tb := b.Tuple(j)
			for k, sc := range srcs {
				if sc.fromA {
					scratch[k] = ta[sc.col]
				} else {
					scratch[k] = tb[sc.col]
				}
			}
			rows = append(rows, scratch...)
			vals = append(vals, v)
		}
	}
	return rows, vals
}

// semijoinProbe keeps a's rows [lo, hi) whose key has a match in ixs,
// in a's row order — the probe loop of semijoinHash and of each block
// of semijoinHashParallel.
func semijoinProbe[T any](a *Relation[T], aCols []int, ixs []*HashIndex, lo, hi int) ([]int32, []T) {
	var rows []int32
	var vals []T
	for i := lo; i < hi; i++ {
		ta := a.Tuple(i)
		if ixs[keys.Chunk(ta, aCols, len(ixs))].lookup(ta, aCols) >= 0 {
			rows = append(rows, ta...)
			vals = append(vals, a.vals[i])
		}
	}
	return rows, vals
}
