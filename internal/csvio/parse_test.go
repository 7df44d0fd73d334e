package csvio

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestParseFloatMatchesStrconv compares the sample parser with
// strconv.ParseFloat on random float64s in every form strconv writes, and
// checks that a capture's samples and times all take the fast path.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	check := func(s []byte) {
		got, err := parseFloat(s)
		want, refErr := strconv.ParseFloat(string(s), 64)
		if (err == nil) != (refErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv %v, %v", s, got, err, want, refErr)
		}
	}
	for i := 0; i < 200_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			// Values near the samples' scale, where the fast path runs.
			v = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(40)-20))
		}
		buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
		check(buf)
		buf = strconv.AppendFloat(buf[:0], v, 'e', rng.IntN(22), 64)
		check(buf)
		buf = strconv.AppendFloat(buf[:0], v, 'f', rng.IntN(22), 64)
		check(buf)
	}

	csvText := encodeCSV(t, testAcquisition(t, 2))
	_, rows, _ := bytes.Cut(csvText, []byte{'\n'})
	for _, row := range bytes.Split(bytes.TrimSuffix(rows, []byte{'\n'}), []byte{'\n'}) {
		for _, field := range bytes.Split(row, comma) {
			if _, ok := parseDecimal(field); !ok {
				t.Fatalf("field %q left the fast path", field)
			}
			check(field)
		}
	}
}

// BenchmarkParseFloat parses a 30 s capture's fields.
func BenchmarkParseFloat(b *testing.B) {
	csvText := encodeCSV(b, testAcquisition(b, 30))
	_, rows, _ := bytes.Cut(csvText, []byte{'\n'})
	var fields [][]byte
	for _, row := range bytes.Split(bytes.TrimSuffix(rows, []byte{'\n'}), []byte{'\n'}) {
		fields = append(fields, bytes.Split(row, comma)...)
	}
	for _, tc := range []struct {
		name  string
		parse func([]byte) (float64, error)
	}{
		{"parseFloat", parseFloat},
		{"strconv", func(s []byte) (float64, error) { return strconv.ParseFloat(string(s), 64) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range fields {
					if _, err := tc.parse(f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
