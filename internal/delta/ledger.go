package delta

import (
	"repro/internal/keys"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// ledger is the per-edge contribution multiset of the recompute
// strategy: idempotent ⊕ (min, max) destroys information, so the
// factor annotation alone cannot answer "what remains after deleting
// this contribution?". Each listed tuple keeps the full multiset of
// values inserted for it; the factor is rebuilt by ⊕-folding each
// tuple's contributions. The pre-existing relation seeds one
// contribution per listed tuple (its merged annotation).
//
// entries is the iteration source (insertion order, deterministic);
// index chains entry i under keys.Hash of its row and is lookup-only,
// with every candidate confirmed against entries[i].row.
type ledger[T any] struct {
	index   keys.Table
	entries []ledgerEntry[T]
}

type ledgerEntry[T any] struct {
	row  []int32
	vals []T // contribution multiset, insertion order
}

func newLedger[T any](n int) *ledger[T] {
	return &ledger[T]{index: keys.NewTable(n), entries: make([]ledgerEntry[T], 0, n)}
}

// ledgerOf seeds a ledger from an existing relation.
func ledgerOf[T any](f *relation.Relation[T]) *ledger[T] {
	lg := newLedger[T](f.Len())
	for i := 0; i < f.Len(); i++ {
		lg.add(append([]int32(nil), f.Tuple(i)...), []T{f.Value(i)})
	}
	return lg
}

// clone deep-copies the ledger (copy-on-write staging: a failed update
// must leave the committed ledger untouched).
func (lg *ledger[T]) clone() *ledger[T] {
	out := newLedger[T](len(lg.entries))
	for _, e := range lg.entries {
		out.add(e.row, append([]T(nil), e.vals...))
	}
	return out
}

// add appends an entry for a row not yet listed.
func (lg *ledger[T]) add(row []int32, vals []T) {
	lg.index.Add(keys.Hash(row, nil))
	lg.entries = append(lg.entries, ledgerEntry[T]{row: row, vals: vals})
}

// find returns the index of the entry listing row, or -1.
func (lg *ledger[T]) find(row []int32) int {
	for i := lg.index.First(keys.Hash(row, nil)); i >= 0; i = lg.index.Next(i) {
		if keys.EqualCols(lg.entries[i].row, nil, row, nil) {
			return int(i)
		}
	}
	return -1
}

func rowOf(t []int) []int32 {
	row := make([]int32, len(t))
	for i, x := range t {
		row[i] = int32(x)
	}
	return row
}

// insert appends one contribution for the tuple.
func (lg *ledger[T]) insert(t []int, val T) {
	row := rowOf(t)
	if i := lg.find(row); i >= 0 {
		lg.entries[i].vals = append(lg.entries[i].vals, val)
		return
	}
	lg.add(row, []T{val})
}

// remove deletes one semiring-equal contribution of the tuple,
// reporting false when none is listed. Emptied entries remain as
// tombstones (build skips them); the index stays intact.
func (lg *ledger[T]) remove(s semiring.Semiring[T], t []int, val T) bool {
	i := lg.find(rowOf(t))
	if i < 0 {
		return false
	}
	vals := lg.entries[i].vals
	for j, v := range vals {
		if s.Equal(v, val) {
			lg.entries[i].vals = append(vals[:j:j], vals[j+1:]...)
			return true
		}
	}
	return false
}

// build rebuilds the factor: one row per tuple with a non-empty
// contribution multiset, annotated with the ⊕-fold of its
// contributions (Build re-sorts and drops ⊕-zeros, so the result is
// exactly what a from-scratch Builder over the same contributions
// produces).
func (lg *ledger[T]) build(s semiring.Semiring[T], schema []int) *relation.Relation[T] {
	b := relation.NewBuilderHint(s, schema, len(lg.entries))
	for _, e := range lg.entries {
		if len(e.vals) == 0 {
			continue
		}
		v := e.vals[0]
		for _, w := range e.vals[1:] {
			v = s.Add(v, w)
		}
		b.AddRow(e.row, v)
	}
	return b.Build()
}
