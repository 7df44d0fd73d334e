package csvio

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand/v2"
	"testing"
)

// FuzzDeflate encodes arbitrary bytes with the packager's encoder, whole and
// cut into segments of a size drawn from the input, each segment primed with
// the window before it as the packager primes it. compress/flate's reader
// and the decode's inflater must both return the input exactly. One encoder
// serves every input, and it must write the same bytes for an input
// whatever it encoded before.
func FuzzDeflate(f *testing.F) {
	csvText := encodeCSV(f, testAcquisitionSeeded(f, 7, 2))
	f.Add(csvText, uint32(len(csvText)/3))
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{'7'}, uint32(0))
	// 258-byte matches across a cut.
	f.Add(bytes.Repeat([]byte{'0'}, 100_000), uint32(40_000))
	rng := rand.New(rand.NewChaCha8([32]byte{26}))
	random := make([]byte, 64<<10)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	f.Add(random, uint32(10_000))
	// A repeat at deflate's farthest distance, across a cut.
	f.Add(append(bytes.Clone(random[:windowSize]), random[:windowSize]...), uint32(windowSize+100))

	var d deflater
	var buf DecodeBuffer
	f.Fuzz(func(t *testing.T, data []byte, segment uint32) {
		whole := d.deflate(nil, data, 0, true)
		// At most 16 segments, so one input costs at most 16 table resets.
		size := max(1+int(segment)%max(len(data), 1), len(data)/16+1)
		var cut []byte
		for start := 0; ; start += size {
			end := min(start+size, len(data))
			w := min(start, windowSize)
			cut = d.deflate(cut, data[start-w:end], w, end == len(data))
			if end == len(data) {
				break
			}
		}
		if again := d.deflate(nil, data, 0, true); !bytes.Equal(again, whole) {
			t.Fatalf("the encoder writes %d B after the segments, %d B before; first difference at %d",
				len(again), len(whole), firstDiff(again, whole))
		}
		for _, stream := range [][]byte{whole, cut} {
			got, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("compress/flate reads %d of %d B back, error %v; first difference at %d",
					len(got), len(data), err, firstDiff(got, data))
			}
			got, err = inflateRaw(&buf, stream)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("the inflater reads %d of %d B back, error %v; first difference at %d",
					len(got), len(data), err, firstDiff(got, data))
			}
		}
	})
}

// TestHuffmanLengthsLimited builds codes for counts whose Huffman code runs
// deeper than the limits, Fibonacci counts, and for random ones: every used
// symbol gets a length within the limit, no unused one does, and the code is
// complete, as both inflaters require of a block's codes.
func TestHuffmanLengthsLimited(t *testing.T) {
	fib := make([]uint32, 30)
	fib[0], fib[1] = 1, 1
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	cases := []struct {
		freq  []uint32
		limit int
	}{{fib, 15}, {fib[:19], 7}}
	rng := rand.New(rand.NewChaCha8([32]byte{14}))
	for range 50 {
		freq := make([]uint32, 286)
		for s := range freq {
			if rng.IntN(3) > 0 {
				freq[s] = uint32(rng.IntN(1 << rng.IntN(17)))
			}
		}
		cases = append(cases, struct {
			freq  []uint32
			limit int
		}{freq, 15})
	}
	var h huffmanScratch
	for i, tc := range cases {
		lens := make([]uint8, len(tc.freq))
		h.lengths(tc.freq, lens, tc.limit)
		used, kraft := 0, 0
		for s, l := range lens {
			if (l == 0) != (tc.freq[s] == 0) || int(l) > tc.limit {
				t.Fatalf("case %d: symbol %d of count %d has length %d (limit %d)", i, s, tc.freq[s], l, tc.limit)
			}
			if l > 0 {
				used++
				kraft += 1 << (tc.limit - int(l))
			}
		}
		if used > 1 && kraft != 1<<tc.limit {
			t.Fatalf("case %d: Kraft sum %d/%d, want a complete code", i, kraft, 1<<tc.limit)
		}
	}
}

// BenchmarkDeflate deflates a 30 s capture's CSV as one stream, with the
// packager's encoder and with compress/flate at level 2, the level it
// replaced.
func BenchmarkDeflate(b *testing.B) {
	csvText := encodeCSV(b, testAcquisition(b, 30))
	b.Run("encoder", func(b *testing.B) {
		var d deflater
		var out []byte
		b.SetBytes(int64(len(csvText)))
		for i := 0; i < b.N; i++ {
			out = d.deflate(out[:0], csvText, 0, true)
		}
		b.ReportMetric(float64(len(out)), "B/stream")
	})
	b.Run("flate", func(b *testing.B) {
		var out bytes.Buffer
		w, err := flate.NewWriter(&out, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(csvText)))
		for i := 0; i < b.N; i++ {
			out.Reset()
			w.Reset(&out)
			if _, err := w.Write(csvText); err != nil {
				b.Fatal(err)
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(out.Len()), "B/stream")
	})
}
