// Seeded hotpath violations and packed-key traps, loaded as
// repro/internal/relation (a kernel package).
package hotpathfix

// stringState allocates string-keyed map state in a kernel function:
// the allocation-discipline violation.
func stringState(n int) int {
	seen := make(map[string]int, n) // want `string-keyed map state in a kernel function`
	return len(seen)
}

// concatKey builds a fresh key string per probe.
func concatKey(m map[string]int, a, b string) int {
	return m[a+b] // want `string-concatenation map key`
}

// packedState is the contract-conforming shape: must not flag.
func packedState(n int) int {
	seen := make(map[uint64]int, n)
	return len(seen)
}

// annotatedFallback is an annotated exception: must not flag.
func annotatedFallback(n int) int {
	//faqlint:allow hotpath(fixture: annotated exception off the hot path)
	seen := make(map[string]int, n)
	return len(seen)
}

// intIndex adds ints to index a slice — no map, no string: must not flag.
func intIndex(xs []int, i, j int) int {
	return xs[i+j]
}

// precomputedKey probes with an existing string, allocating nothing:
// must not flag.
func precomputedKey(m map[string]int, k string) int {
	return m[k]
}

var _ = []any{stringState, concatKey, packedState, annotatedFallback, intIndex, precomputedKey}
