package faqs

import (
	"context"
	"slices"
	"testing"

	"repro/internal/faq"
)

// TestResultRowsShareOneArray pins toResult's row layout: an answer's
// rows are windows of one backing array — the allocation count does not
// grow with the row count — and each is capped at its own end, so a
// caller appending to one row cannot clobber its neighbour.
func TestResultRowsShareOneArray(t *testing.T) {
	sch, err := NewSchema("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRelationBuilder(sch)
	const rows = 1000
	for i := 0; i < rows; i++ {
		rb.Add(i, rows-1-i)
	}
	rel, err := rb.Relation()
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(Count).Factor(rel).Free("A", "B").Domain(rows).Build()
	if err != nil {
		t.Fatal(err)
	}
	ans := q.typed.(*faq.Query[int64]).Factors[0]
	r := &typedRunner[int64]{im: Count.impl.(impl[int64])}

	if allocs := testing.AllocsPerRun(10, func() { r.toResult(q, ans, nil) }); allocs > 8 {
		t.Fatalf("toResult of %d rows: %.0f allocations, want a constant few", rows, allocs)
	}

	eng := NewEngine()
	defer eng.Close()
	res, err := eng.Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != rows {
		t.Fatalf("answer has %d rows, want %d", res.Len(), rows)
	}
	next := slices.Clone(res.Tuples[1])
	grown := append(res.Tuples[0], 99, 98)
	if !slices.Equal(res.Tuples[1], next) {
		t.Fatalf("appending to row 0 rewrote row 1: %v, was %v", res.Tuples[1], next)
	}
	if len(grown) != 4 || len(res.Tuples[0]) != 2 {
		t.Fatalf("append result %v, row 0 %v", grown, res.Tuples[0])
	}
}
