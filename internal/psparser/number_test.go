package psparser

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseNumberReference is ParseNumber as it was before the plain-decimal
// fast path and the fixed multiplier table: the full grammar on every
// input, with the multipliers in a map literal. FuzzParseNumber holds
// ParseNumber to it.
func parseNumberReference(s string) (any, error) {
	text := strings.ToLower(strings.TrimSpace(s))
	if text == "" {
		return nil, strconv.ErrSyntax
	}
	neg := false
	switch text[0] {
	case '-':
		neg = true
		text = text[1:]
	case '+':
		text = text[1:]
	}
	if text == "" || text[0] == '-' || text[0] == '+' {
		return nil, strconv.ErrSyntax
	}
	mult := int64(1)
	for suffix, m := range map[string]int64{
		"kb": 1 << 10, "mb": 1 << 20, "gb": 1 << 30, "tb": 1 << 40, "pb": 1 << 50,
	} {
		if strings.HasSuffix(text, suffix) {
			text = strings.TrimSuffix(text, suffix)
			mult = m
			break
		}
	}
	if strings.HasPrefix(text, "0x") {
		text = strings.TrimSuffix(text, "l")
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return nil, err
		}
		n := int64(v) * mult
		if neg {
			n = -n
		}
		return n, nil
	}
	isDecimal := false
	if strings.HasSuffix(text, "d") {
		isDecimal = true
		text = strings.TrimSuffix(text, "d")
	}
	text = strings.TrimSuffix(text, "l")
	if !isDecimal && !strings.ContainsAny(text, ".e") {
		v, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			n := v * mult
			if neg {
				n = -n
			}
			return n, nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, err
	}
	f *= float64(mult)
	if neg {
		f = -f
	}
	return f, nil
}

// sameNumber reports whether two ParseNumber results have the same Go
// type and the same value, bit for bit for floats (NaN, -0).
func sameNumber(a, b any) bool {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return false
}

// FuzzParseNumber compares ParseNumber with parseNumberReference: the
// same value and Go type, and an error (the same one) in the same
// cases. Plain `go test` runs the seeds.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "7", "42", "-7", "+7", "007", "-0", "+0", "-", "+", "", " ", "+-1", "--1",
		"999999999999999999", "-999999999999999999", "9999999999999999999",
		"9223372036854775807", "-9223372036854775808", "1234567890123456789",
		" 12", "12 ", "1_0", "١٢", "1kb", "-2MB", "3gb", "1tb", "1pb", "kb",
		"0x6d", "0x6dl", "0X1F", "-0x10", "0xffffffffffffffff", "1.5", "-.5", "1e3",
		"1E-2", "12d", "12l", "12.5d", "nan", "-Inf", "infinity", "0b101",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := ParseNumber(s)
		want, wantErr := parseNumberReference(s)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("ParseNumber(%q) error %v, reference %v", s, gotErr, wantErr)
		}
		if gotErr == nil && !sameNumber(got, want) {
			t.Fatalf("ParseNumber(%q) = %T %v, reference %T %v", s, got, got, want, want)
		}
	})
}
