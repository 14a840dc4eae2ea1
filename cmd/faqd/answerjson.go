package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/faqs"
)

// encodeJSON renders one response body exactly as
// json.NewEncoder(w).SetIndent("", "  ").Encode(payload) would,
// trailing newline included. The two answer types, whose bodies grow
// with the answer (tens of thousands of rows on a large view), go
// through an append-based writer that skips reflection and the
// byte-by-byte re-indent pass; every other payload uses encoding/json.
func encodeJSON(payload any) ([]byte, error) {
	switch p := payload.(type) {
	case *faqs.WireAnswer:
		return encodeWireAnswer(p)
	case *faqs.WireMaterializedAnswer:
		return encodeMaterializedAnswer(p)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeWireAnswer renders a /solve body. WireAnswer has no omitempty
// on its answer slices: nil encodes as null and empty as [].
func encodeWireAnswer(wa *faqs.WireAnswer) ([]byte, error) {
	b := answerBuf(wa.Tuples, wa.Values)
	b = append(b, '{')
	b, err := appendAnswerBlock(b, true, false, wa.Schema, wa.Tuples, wa.Values)
	if err != nil {
		return nil, err
	}
	b = appendKey(b, false, "plan_hash")
	b = appendString(b, wa.PlanHash)
	b = appendKey(b, false, "cache_hit")
	b = strconv.AppendBool(b, wa.CacheHit)
	in := &wa.Info
	b = append(b, ",\n  \"info\": {\n    \"cache_hit\": "...)
	b = strconv.AppendBool(b, in.CacheHit)
	b = append(b, ",\n    \"fallback\": "...)
	b = strconv.AppendBool(b, in.Fallback)
	b = append(b, ",\n    \"canon_ns\": "...)
	b = strconv.AppendInt(b, in.CanonNS, 10)
	b = append(b, ",\n    \"plan_ns\": "...)
	b = strconv.AppendInt(b, in.PlanNS, 10)
	b = append(b, ",\n    \"bind_ns\": "...)
	b = strconv.AppendInt(b, in.BindNS, 10)
	b = append(b, ",\n    \"exec_ns\": "...)
	b = strconv.AppendInt(b, in.ExecNS, 10)
	b = append(b, ",\n    \"total_ns\": "...)
	b = strconv.AppendInt(b, in.TotalNS, 10)
	return append(b, "\n  }\n}\n"...), nil
}

// encodeMaterializedAnswer renders a /materialize or /update body.
// WireMaterializedAnswer tags closed and the answer slices omitempty:
// a false flag and nil or empty slices are left out.
func encodeMaterializedAnswer(wa *faqs.WireMaterializedAnswer) ([]byte, error) {
	b := answerBuf(wa.Tuples, wa.Values)
	b = append(b, '{')
	b = appendKey(b, true, "name")
	b = appendString(b, wa.Name)
	b = appendKey(b, false, "strategy")
	b = appendString(b, wa.Strategy)
	if wa.Closed {
		b = appendKey(b, false, "closed")
		b = append(b, "true"...)
	}
	b, err := appendAnswerBlock(b, false, true, wa.Schema, wa.Tuples, wa.Values)
	if err != nil {
		return nil, err
	}
	return append(b, "\n}\n"...), nil
}

// answerBuf returns an empty buffer with room for an answer body, so
// the common case appends into one allocation: per row, the row
// brackets and indents plus about eight bytes per integer column, and
// a value line.
func answerBuf(tuples [][]int, values []float64) []byte {
	n := 256 + len(values)*16
	if len(tuples) > 0 {
		n += len(tuples) * (12 + 16*len(tuples[0]))
	}
	return make([]byte, 0, n)
}

// appendAnswerBlock appends the schema, tuples and values members
// shared by both answer types. first marks schema as the object's
// first member; omitEmpty selects the omitempty rule over the
// null-for-nil rule.
func appendAnswerBlock(b []byte, first, omitEmpty bool, schema []string, tuples [][]int, values []float64) ([]byte, error) {
	if !omitEmpty || len(schema) > 0 {
		b = appendKey(b, first, "schema")
		b = appendStrings(b, schema)
	}
	if !omitEmpty || len(tuples) > 0 {
		b = appendKey(b, false, "tuples")
		b = appendTuples(b, tuples)
	}
	if !omitEmpty || len(values) > 0 {
		b = appendKey(b, false, "values")
		var err error
		if b, err = appendValues(b, values); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendKey appends one top-level member's separator, indent and key.
// Keys are fixed ASCII identifiers and need no escaping.
func appendKey(b []byte, first bool, key string) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, "\n  \""...)
	b = append(b, key...)
	return append(b, "\": "...)
}

// appendString appends s with encoding/json's own escaping (HTML-safe
// <, >, &, U+2028/U+2029 escapes, invalid UTF-8 replaced by U+FFFD).
// Answer strings are few — names, strategy, plan hash — so the
// per-string Marshal does not show next to the rows.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	if len(ss) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = appendString(b, s)
	}
	return append(b, "\n  ]"...)
}

func appendTuples(b []byte, tuples [][]int) []byte {
	if tuples == nil {
		return append(b, "null"...)
	}
	if len(tuples) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, row := range tuples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		switch {
		case row == nil:
			b = append(b, "null"...)
		case len(row) == 0:
			b = append(b, "[]"...)
		default:
			b = append(b, '[')
			for j, x := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n      "...)
				b = strconv.AppendInt(b, int64(x), 10)
			}
			b = append(b, "\n    ]"...)
		}
	}
	return append(b, "\n  ]"...)
}

func appendValues(b []byte, values []float64) ([]byte, error) {
	if values == nil {
		return append(b, "null"...), nil
	}
	if len(values) == 0 {
		return append(b, "[]"...), nil
	}
	b = append(b, '[')
	for i, f := range values {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("values[%d] = %v is not representable in JSON", i, f)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = appendFloat(b, f)
	}
	return append(b, "\n  ]"...), nil
}

// appendFloat appends a finite f in encoding/json's float64 format
// (ES6 number-to-string: shortest round-trip digits, exponent form
// below 1e-6 and from 1e21). Integral values below 1e15 in magnitude —
// counts, bool/f2 flags, the common answer — print through AppendInt,
// which gives the same digits there; −0 keeps its sign through the
// general path.
func appendFloat(b []byte, f float64) []byte {
	if f > -1e15 && f < 1e15 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
