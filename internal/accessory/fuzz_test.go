package accessory

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadFrame hardens the frame decoder: arbitrary bytes must yield an
// error or a valid frame, never a panic, and accepted frames must re-encode
// to the consumed bytes.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameData, Payload: []byte("payload")}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{frameMagic0, frameMagic1})
	f.Add(bytes.Repeat([]byte{0xA0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteFrame(&re, frame); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, re.Bytes()) {
			t.Fatal("re-encoded frame does not match consumed bytes")
		}
	})
}

// fuzzSink feeds the fuzzer's bytes as the receive stream and swallows the
// receiver's acks: the remote never answers, so the receiver must return on
// its own when the input runs out.
type fuzzSink struct {
	io.Reader
}

func (fuzzSink) Write(p []byte) (int, error) { return len(p), nil }

// transferSeed encodes the frames a sender writes for one transfer — a
// progress line, one data frame per chunk, the end frame — giving coverage
// a valid path to mutate from.
func transferSeed(chunks ...string) []byte {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, Frame{Type: FrameProgress, Payload: []byte("37%")})
	for _, c := range chunks {
		_ = WriteFrame(&buf, Frame{Type: FrameData, Payload: []byte(c)})
	}
	_ = WriteFrame(&buf, Frame{Type: FrameEnd})
	return buf.Bytes()
}

// FuzzReceiveData hardens the frame reassembly both ends of the link run:
// the phone reassembles the measurements with ReceiveData, and the device
// reassembles the report from the untrusted phone (§II) with it. Arbitrary
// bytes must never panic the receiver, it must return once the stream is
// exhausted, and an accepted transfer must be the data frames before the
// end frame, in order.
func FuzzReceiveData(f *testing.F) {
	f.Add(transferSeed("cyto-coded ", "measurement"))
	f.Add(transferSeed())
	// A valid stream with its first magic byte corrupted.
	corrupted := transferSeed("y")
	corrupted[0] ^= 0xFF
	f.Add(corrupted)
	var errFrame bytes.Buffer
	_ = WriteFrame(&errFrame, Frame{Type: FrameError, Payload: []byte("pump stall")})
	f.Add(errFrame.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{frameMagic0, frameMagic1}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Conn{rw: fuzzSink{bytes.NewReader(data)}}
		got, err := c.ReceiveData(len(data), func(string) {})
		if err != nil {
			return
		}
		var want []byte
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				t.Fatalf("ReceiveData accepted a stream whose frames do not decode: %v", err)
			}
			if fr.Type == FrameEnd {
				break
			}
			if fr.Type == FrameData {
				want = append(want, fr.Payload...)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reassembled %d bytes, want the %d bytes of the data frames", len(got), len(want))
		}
	})
}
