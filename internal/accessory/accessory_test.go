package accessory

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: FrameHello, Payload: []byte("hi")},
		{Type: FrameData, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: FrameAck},
		{Type: FrameProgress, Payload: []byte("37%")},
		{Type: FrameError, Payload: []byte("boom")},
		{Type: FrameEnd},
	}
	for _, f := range cases {
		t.Run(f.Type.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, f); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
			}
		})
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, typ uint8) bool {
		frame := Frame{Type: FrameType(typ%6 + 1), Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, frame); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return got.Type == frame.Type && bytes.Equal(got.Payload, frame.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, Frame{Type: FrameData, Payload: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("expected ErrOversized, got %v", err)
	}
}

func TestReadFrameDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameData, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a payload bit.
	corrupted := append([]byte(nil), data...)
	corrupted[headerLen] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(corrupted)); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("expected ErrBadCRC, got %v", err)
	}

	// Break the magic.
	corrupted = append([]byte(nil), data...)
	corrupted[0] = 0x00
	if _, err := ReadFrame(bytes.NewReader(corrupted)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("expected ErrBadMagic, got %v", err)
	}

	// Truncate.
	if _, err := ReadFrame(bytes.NewReader(data[:5])); err == nil {
		t.Fatal("expected error for truncated frame")
	}

	// Oversized declared length.
	huge := []byte{frameMagic0, frameMagic1, byte(FrameData), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrOversized) {
		t.Fatalf("expected ErrOversized, got %v", err)
	}
}

func TestIdentityEncodeDecode(t *testing.T) {
	id := Identity{Manufacturer: "MedSen", Model: "BioSensor-9", Version: "1.0"}
	got, err := decodeIdentity(encodeIdentity(id))
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := decodeIdentity([]byte{0, 5}); !errors.Is(err, ErrBadHello) {
		t.Fatalf("expected ErrBadHello, got %v", err)
	}
	if _, err := decodeIdentity(append(encodeIdentity(id), 0x00)); !errors.Is(err, ErrBadHello) {
		t.Fatalf("trailing bytes: expected ErrBadHello, got %v", err)
	}
}

// duplex runs both handshake sides over a net.Pipe.
func duplex(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	type result struct {
		conn *Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := Handshake(b, Identity{Manufacturer: "Google", Model: "Nexus 5", Version: "4.4"})
		ch <- result{conn, err}
	}()
	controller, err := Handshake(a, DefaultIdentity())
	if err != nil {
		t.Fatalf("controller handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("phone handshake: %v", r.err)
	}
	return controller, r.conn
}

func TestHandshakeExchangesIdentities(t *testing.T) {
	controller, phone := duplex(t)
	if controller.Peer.Model != "Nexus 5" {
		t.Fatalf("controller sees peer %+v", controller.Peer)
	}
	if phone.Peer.Manufacturer != "MedSen" {
		t.Fatalf("phone sees peer %+v", phone.Peer)
	}
}

func TestSendReceiveDataChunked(t *testing.T) {
	controller, phone := duplex(t)
	payload := bytes.Repeat([]byte("medsen-measurements-"), 200000) // ~4 MB, multiple frames

	var progress []string
	type recvResult struct {
		data []byte
		err  error
	}
	ch := make(chan recvResult, 1)
	go func() {
		data, err := phone.ReceiveData(len(payload), func(s string) { progress = append(progress, s) })
		ch <- recvResult{data, err}
	}()

	if err := controller.SendProgress("starting"); err != nil {
		t.Fatal(err)
	}
	frames, err := controller.SendData(payload)
	if err != nil {
		t.Fatalf("SendData: %v", err)
	}
	if frames < 2 {
		t.Fatalf("expected chunked transfer, got %d frames", frames)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("ReceiveData: %v", r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatal("payload corrupted in transfer")
	}
	if len(progress) != 1 || progress[0] != "starting" {
		t.Fatalf("progress = %v", progress)
	}
}

// TestReceiveDataRefusesPastLimit: a peer that streams data frames past the
// receiver's limit and never ends the transfer is refused on the first frame
// beyond the limit, whose bytes are not kept.
func TestReceiveDataRefusesPastLimit(t *testing.T) {
	const frameSize, limit = 1000, 10_500
	var frame bytes.Buffer
	if err := WriteFrame(&frame, Frame{Type: FrameData, Payload: bytes.Repeat([]byte{'x'}, frameSize)}); err != nil {
		t.Fatal(err)
	}
	peer := &endlessPeer{frame: frame.Bytes()}
	c := &Conn{rw: peer}
	data, err := c.ReceiveData(limit, nil)
	if !errors.Is(err, ErrTooLarge) || data != nil {
		t.Fatalf("ReceiveData = %d bytes, %v; want ErrTooLarge", len(data), err)
	}
	var ack bytes.Buffer
	if err := WriteFrame(&ack, Frame{Type: FrameAck}); err != nil {
		t.Fatal(err)
	}
	if acked := peer.written / ack.Len(); acked != limit/frameSize {
		t.Fatalf("receiver acknowledged %d frames of %d B under a %d B limit, want %d",
			acked, frameSize, limit, limit/frameSize)
	}
}

// endlessPeer sends the same frame forever and counts what it is sent.
type endlessPeer struct {
	frame   []byte
	off     int
	written int
}

func (p *endlessPeer) Read(b []byte) (int, error) {
	n := 0
	for n < len(b) {
		c := copy(b[n:], p.frame[p.off:])
		n += c
		p.off = (p.off + c) % len(p.frame)
	}
	return n, nil
}

func (p *endlessPeer) Write(b []byte) (int, error) {
	p.written += len(b)
	return len(b), nil
}

func TestReceiveDataPropagatesErrorFrame(t *testing.T) {
	controller, phone := duplex(t)
	ch := make(chan error, 1)
	go func() {
		_, err := phone.ReceiveData(MaxPayload, nil)
		ch <- err
	}()
	if err := WriteFrame(controllerRW(controller), Frame{Type: FrameError, Payload: []byte("pump stall")}); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected ErrInterrupted, got %v", err)
	}
}

func TestHandshakeRejectsNonHello(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// Misbehaving peer: reads the hello, answers with data.
		_, _ = ReadFrame(b)
		_ = WriteFrame(b, Frame{Type: FrameData, Payload: []byte("x")})
	}()
	if _, err := Handshake(a, DefaultIdentity()); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("expected ErrUnexpected, got %v", err)
	}
}

// controllerRW exposes the underlying transport for fault-injection tests.
func controllerRW(c *Conn) io.ReadWriter { return c.rw }

func TestFrameTypeStrings(t *testing.T) {
	cases := map[FrameType]string{
		FrameHello:    "hello",
		FrameData:     "data",
		FrameAck:      "ack",
		FrameProgress: "progress",
		FrameError:    "error",
		FrameEnd:      "end",
		FrameType(99): "frame(99)",
	}
	for ft, want := range cases {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}
