package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/faqs"
)

// oracleJSON is the reference encoding: exactly what writeJSON sent
// for every payload before the answer appender existed.
func oracleJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkSameAsOracle requires encodeJSON to produce the oracle's bytes
// for v, or to fail exactly when the oracle fails.
func checkSameAsOracle(t *testing.T, v any) {
	t.Helper()
	want, wantErr := oracleJSON(v)
	got, gotErr := encodeJSON(v)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error mismatch: oracle %v, appender %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes differ\nappender:\n%s\noracle:\n%s", got, want)
	}
}

// answerCase is one answer block, rendered through both answer types.
type answerCase struct {
	name   string
	schema []string
	tuples [][]int
	values []float64
}

func (c answerCase) payloads() []any {
	return []any{
		&faqs.WireAnswer{
			Schema: c.schema, Tuples: c.tuples, Values: c.values,
			PlanHash: "00f1e2d3c4b5a697", CacheHit: true,
			Info: faqs.WireInfo{CacheHit: true, CanonNS: 12, PlanNS: -3, BindNS: math.MaxInt64, ExecNS: 0, TotalNS: 1 << 40},
		},
		&faqs.WireAnswer{Schema: c.schema, Tuples: c.tuples, Values: c.values},
		&faqs.WireMaterializedAnswer{Name: "v1", Strategy: "ring", Schema: c.schema, Tuples: c.tuples, Values: c.values},
		&faqs.WireMaterializedAnswer{Name: "v1", Strategy: "recompute", Closed: true, Schema: c.schema, Tuples: c.tuples, Values: c.values},
	}
}

func TestAnswerJSONMatchesEncodingJSON(t *testing.T) {
	cases := []answerCase{
		{name: "nil"},
		{name: "empty", schema: []string{}, tuples: [][]int{}, values: []float64{}},
		{name: "scalar", schema: []string{}, tuples: [][]int{{}}, values: []float64{42}},
		{name: "nil-row", schema: []string{"A"}, tuples: [][]int{nil, {1}}, values: []float64{1, 2}},
		{name: "arity1", schema: []string{"A"}, tuples: [][]int{{0}, {2}, {3}}, values: []float64{1, 2, 3}},
		{name: "arity3", schema: []string{"A", "B", "C"},
			tuples: [][]int{{-1, 0, 1}, {math.MaxInt64, math.MinInt64, -123456789}},
			values: []float64{0.5, -7}},
		{name: "values-only", values: []float64{1}},
		{name: "tuples-only", tuples: [][]int{{1, 2}}},
		{name: "floats", schema: []string{"A"}, values: []float64{
			math.Copysign(0, -1), 0, 5e-324, 1e-7, 1e-6, 1.5e-6, 0.1, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
			1 << 53, 1<<53 + 2, 1e20, 1e21, -1e21, 123456789012345678, 1.7976931348623157e308,
			-1.7976931348623157e308, 2.5, 1 / 3.0, 1e-300, -1e-7, 9.999999999999999e20,
		}},
		{name: "names", schema: []string{"<a>&b", "\xff\xfe", "line\u2028sep\u2029", `quote"back\slash`, "tab\tnl\n", "é€😀", ""},
			tuples: [][]int{{1, 2, 3, 4, 5, 6, 7}}, values: []float64{1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range c.payloads() {
				checkSameAsOracle(t, p)
			}
		})
	}
	t.Run("view-names", func(t *testing.T) {
		for _, name := range []string{"<script>", "a&b", "\xc3\x28", "x\u2028y", "\x00\x1f", ""} {
			checkSameAsOracle(t, &faqs.WireMaterializedAnswer{Name: name, Strategy: name})
			checkSameAsOracle(t, &faqs.WireAnswer{PlanHash: name})
		}
	})
}

func TestAnswerJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vals := []float64{1, f}
		for _, p := range []any{
			&faqs.WireAnswer{Schema: []string{"A"}, Tuples: [][]int{{0}, {1}}, Values: vals},
			&faqs.WireMaterializedAnswer{Name: "v", Strategy: "ring", Schema: []string{"A"}, Tuples: [][]int{{0}, {1}}, Values: vals},
		} {
			if _, err := oracleJSON(p); err == nil {
				t.Fatalf("oracle accepted %v", f)
			}
			_, err := encodeJSON(p)
			if err == nil || !strings.Contains(err.Error(), "values[1]") {
				t.Fatalf("appender error for %v: %v, want one naming values[1]", f, err)
			}
		}
	}
}

// TestNonFiniteAnswerIs500 pins the render-failure contract: an answer
// JSON cannot carry (minplus's 0 = +Inf on an empty scalar answer) is a
// 500 with a JSON error body naming the value, not a 200 with an empty
// body.
func TestNonFiniteAnswerIs500(t *testing.T) {
	emptyJoin := func() *faqs.WireRequest {
		return &faqs.WireRequest{
			Semiring: "minplus",
			Edges:    [][]string{{"A", "B"}, {"B", "C"}},
			Factors:  []faqs.WireFactor{{Tuples: [][]int{{0, 1}}}, {Tuples: [][]int{{2, 0}}}},
			Dom:      4,
		}
	}
	mux := newServer(faqs.WithPlanCache(16)).mux()
	for _, tc := range []struct {
		path    string
		payload any
	}{
		{"/solve", emptyJoin()},
		{"/materialize", faqs.WireMaterializeRequest{Name: "inf", Request: *emptyJoin()}},
	} {
		rec := postJSON(t, mux, tc.path, tc.payload)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, body %q; want 500", tc.path, rec.Code, rec.Body.String())
		}
		var we wireError
		if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil {
			t.Fatalf("%s: error body %q: %v", tc.path, rec.Body.String(), err)
		}
		if !strings.Contains(we.Error, "+Inf") {
			t.Fatalf("%s: error %q does not name the value", tc.path, we.Error)
		}
		if got, want := rec.Header().Get("Content-Length"), len(rec.Body.Bytes()); got != strconv.Itoa(want) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", tc.path, got, want)
		}
	}
}

// FuzzAnswerJSON drives the appender ≡ encoding/json comparison over
// arbitrary names, shapes, ints and float bit patterns (NaN and ±Inf
// included: both sides must then fail).
func FuzzAnswerJSON(f *testing.F) {
	f.Add("v1", "ring", "A", uint8(1), []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08"), uint8(0))
	f.Add("<&>", " ", "\xff", uint8(3), []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0}, uint8(7))
	f.Add("", "", "", uint8(0), []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, name, strategy, attr string, arity uint8, data []byte, flags uint8) {
		arity %= 4
		words := make([]uint64, 0, len(data)/8)
		for len(data) >= 8 {
			words = append(words, binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		var schema []string
		var tuples [][]int
		var values []float64
		if flags&1 == 0 {
			schema = []string{}
			tuples = [][]int{}
			values = []float64{}
		}
		for i := 0; i < int(arity); i++ {
			schema = append(schema, attr+strings.Repeat("x", i))
		}
		for i, w := range words {
			var row []int
			if flags&2 == 0 || i%3 != 0 {
				row = make([]int, arity)
			}
			for j := range row {
				row[j] = int(int64(w) >> (8 * j))
			}
			tuples = append(tuples, row)
			f := math.Float64frombits(w)
			if flags&4 != 0 {
				f = float64(int64(w) >> (w % 64)) // integral values of every magnitude
			}
			values = append(values, f)
		}
		closed := flags&8 != 0
		checkSameAsOracle(t, &faqs.WireAnswer{Schema: schema, Tuples: tuples, Values: values, PlanHash: name, CacheHit: closed})
		checkSameAsOracle(t, &faqs.WireMaterializedAnswer{Name: name, Strategy: strategy, Closed: closed, Schema: schema, Tuples: tuples, Values: values})
	})
}

// benchSink keeps the benchmarked encodes live.
var benchSink []byte

// BenchmarkWriteAnswer measures the /update body of a path7-sized view
// answer (21,042 rows of arity 1 with count values) through the
// encoding/json oracle and through the appender.
func BenchmarkWriteAnswer(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	const rows = 21042
	wa := &faqs.WireMaterializedAnswer{
		Name: "path7", Strategy: "ring",
		Schema: []string{"A0"},
		Tuples: make([][]int, rows),
		Values: make([]float64, rows),
	}
	flat := make([]int, rows)
	for i := range wa.Tuples {
		flat[i] = i * 4
		wa.Tuples[i] = flat[i : i+1 : i+1]
		wa.Values[i] = float64(r.Int63n(1 << 24))
	}
	for _, enc := range []struct {
		name string
		fn   func(any) ([]byte, error)
	}{{"oracle", oracleJSON}, {"appender", encodeJSON}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := enc.fn(wa)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
			b.SetBytes(int64(len(benchSink)))
		})
	}
}
