// Package csvio serializes acquisitions the way the MedSen prototype ships
// them to the cloud: CSV files of demodulated multi-carrier samples (§VII-B,
// "approximately 600MB of encrypted bio-sensor measurements, captured in csv
// files"), bundled into zip archives by the phone to save 4G transfer volume
// ("MedSen implements zip data compression on the smartphone. This reduced
// the sample size to 240MB").
package csvio

import (
	"archive/zip"
	"bufio"
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"

	"medsen/internal/lockin"
	"medsen/internal/sigproc"
)

// MeasurementsFileName is the archive member holding the CSV payload.
const MeasurementsFileName = "measurements.csv"

// ErrBadCSV reports a malformed measurements file.
var ErrBadCSV = errors.New("csvio: malformed measurements CSV")

// Capture packaging constants. None of them is an option: each one fixes
// the payload bytes, and a payload must depend only on its capture, never on
// who packaged it or on how many cores they had (DESIGN.md §12).
const (
	// segmentSize is how many CSV bytes one deflate segment holds.
	segmentSize = 256 << 10
	// windowSize is deflate's back-reference distance. Each segment is
	// primed with the windowSize bytes before it, so its matches reach
	// across the cut as they would in one serial stream.
	windowSize = 32 << 10
	// deflateLevel is the level archive/zip's own Deflate compressor uses.
	deflateLevel = 5
)

// EncodeAcquisition writes the acquisition as CSV: a header row of
// "time_s,ch_<freq>Hz,..." followed by one row per sample instant.
func EncodeAcquisition(w io.Writer, acq lockin.Acquisition) error {
	enc, err := newEncoder(acq)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, segmentSize+rowSlack)
	for !enc.done() {
		buf = enc.appendRows(buf[:0], segmentSize)
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("csvio: writing CSV: %w", err)
		}
	}
	return nil
}

// rowSlack is room for the row that crosses a buffer's limit.
const rowSlack = 4 << 10

// encoder formats an acquisition's CSV text: the header, then one row per
// sample instant. The bytes are exactly those encoding/csv writes for the
// same fields, because none of the fields needs quoting: the header names,
// and numbers in strconv's shortest form, "NaN" and "±Inf" included.
type encoder struct {
	acq  lockin.Acquisition
	rate float64
	n    int // sample rows
	next int // next row to write; -1 while the header is pending
}

func newEncoder(acq lockin.Acquisition) (*encoder, error) {
	if len(acq.Traces) == 0 {
		return nil, errors.New("csvio: empty acquisition")
	}
	if len(acq.CarriersHz) != len(acq.Traces) {
		return nil, fmt.Errorf("csvio: %d carriers for %d traces", len(acq.CarriersHz), len(acq.Traces))
	}
	n := len(acq.Traces[0].Samples)
	rate := acq.Traces[0].Rate
	for i, tr := range acq.Traces {
		if len(tr.Samples) != n {
			return nil, fmt.Errorf("csvio: trace %d has %d samples, want %d", i, len(tr.Samples), n)
		}
		if tr.Rate != rate {
			return nil, fmt.Errorf("csvio: trace %d rate %v differs from %v", i, tr.Rate, rate)
		}
	}
	return &encoder{acq: acq, rate: rate, n: n, next: -1}, nil
}

// done reports whether every row has been written.
func (e *encoder) done() bool { return e.next == e.n }

// appendRows appends the next rows to dst, the header first, until dst
// holds at least limit bytes or no row is left. The last row may end past
// limit.
func (e *encoder) appendRows(dst []byte, limit int) []byte {
	if e.next < 0 {
		dst = append(dst, "time_s"...)
		for _, f := range e.acq.CarriersHz {
			dst = append(dst, ",ch_"...)
			dst = strconv.AppendInt(dst, int64(f), 10)
			dst = append(dst, "Hz"...)
		}
		dst = append(dst, '\n')
		e.next = 0
	}
	for ; e.next < e.n && len(dst) < limit; e.next++ {
		dst = strconv.AppendFloat(dst, float64(e.next)/e.rate, 'g', -1, 64)
		for _, tr := range e.acq.Traces {
			dst = append(dst, ',')
			dst = strconv.AppendFloat(dst, tr.Samples[e.next], 'g', -1, 64)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// DecodeBuffer holds reusable decode state for DecodeAcquisitionBuffer and
// DecompressAcquisitionBuffer: the sample storage, the line reader and room
// for a row longer than the reader's buffer. Sustained decoding (one upload
// after another in the cloud service) then allocates nothing per row. The
// zero value is ready to use; a buffer must not be shared between
// concurrent decodes.
type DecodeBuffer struct {
	samples [][]float64
	times   []float64
	rd      *bufio.Reader
	long    []byte
}

// readBufferSize is the line reader's buffer. A longer row is gathered in
// DecodeBuffer.long.
const readBufferSize = 4 << 10

// DecodeAcquisition parses a CSV produced by EncodeAcquisition. The sampling
// rate is recovered from the time column.
func DecodeAcquisition(r io.Reader) (lockin.Acquisition, error) {
	return decodeAcquisition(r, nil)
}

// DecodeAcquisitionBuffer is DecodeAcquisition with sample storage drawn
// from buf. The returned acquisition's traces alias buf's backing arrays and
// are valid only until the buffer's next decode: callers that recycle the
// buffer (e.g. through a sync.Pool) must be done with the acquisition first.
func DecodeAcquisitionBuffer(r io.Reader, buf *DecodeBuffer) (lockin.Acquisition, error) {
	return decodeAcquisition(r, buf)
}

// decodeAcquisition scans the DESIGN.md §12 format row by row: a header of
// "time_s" and canonical channel columns, then rows of unquoted numbers,
// with encoding/csv's line endings and blank lines. Any quote is rejected.
// Fields are parsed in place, so a warmed buffer allocates nothing per row.
func decodeAcquisition(r io.Reader, buf *DecodeBuffer) (lockin.Acquisition, error) {
	if buf == nil {
		buf = new(DecodeBuffer)
	}
	if buf.rd == nil {
		buf.rd = bufio.NewReaderSize(nil, readBufferSize)
	}
	buf.rd.Reset(r)
	// A pooled buffer must not keep the source (a zip member reader) alive.
	defer buf.rd.Reset(nil)

	header, err := buf.row()
	if err != nil {
		return lockin.Acquisition{}, fmt.Errorf("%w: reading header: %v", ErrBadCSV, err)
	}
	first, cols, _ := bytes.Cut(header, comma)
	if string(first) != "time_s" || len(cols) == 0 {
		return lockin.Acquisition{}, fmt.Errorf("%w: bad header %q", ErrBadCSV, header)
	}
	channels := bytes.Split(cols, comma)
	carriers := make([]float64, len(channels))
	for c, col := range channels {
		hz, ok := channelHz(col)
		if !ok {
			return lockin.Acquisition{}, fmt.Errorf("%w: bad channel column %q", ErrBadCSV, col)
		}
		carriers[c] = float64(hz)
	}

	if cap(buf.samples) < len(carriers) {
		buf.samples = make([][]float64, len(carriers))
	}
	samples := buf.samples[:len(carriers)]
	for c := range samples {
		samples[c] = samples[c][:0]
	}
	times := buf.times[:0]
	defer func() {
		// Keep whatever the appends grew, even on a parse error.
		buf.samples = samples
		buf.times = times
	}()
	for {
		row, err := buf.row()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return lockin.Acquisition{}, fmt.Errorf("%w: %v", ErrBadCSV, err)
		}
		if n := bytes.Count(row, comma) + 1; n != len(carriers)+1 {
			return lockin.Acquisition{}, fmt.Errorf("%w: row has %d fields, want %d",
				ErrBadCSV, n, len(carriers)+1)
		}
		field, rest, _ := bytes.Cut(row, comma)
		t, err := strconv.ParseFloat(string(field), 64)
		if err != nil || !finite(t) {
			return lockin.Acquisition{}, fmt.Errorf("%w: bad time %q", ErrBadCSV, field)
		}
		// The rate is recovered from this column, so the sample clock must
		// tick forward.
		if n := len(times); n > 0 && t <= times[n-1] {
			return lockin.Acquisition{}, fmt.Errorf("%w: time %q does not follow %v", ErrBadCSV, field, times[n-1])
		}
		times = append(times, t)
		for c := range samples {
			field, rest, _ = bytes.Cut(rest, comma)
			v, err := strconv.ParseFloat(string(field), 64)
			if err != nil || !finite(v) {
				return lockin.Acquisition{}, fmt.Errorf("%w: bad value %q", ErrBadCSV, field)
			}
			samples[c] = append(samples[c], v)
		}
	}
	if len(times) < 2 {
		return lockin.Acquisition{}, fmt.Errorf("%w: need at least 2 samples", ErrBadCSV)
	}
	span := times[len(times)-1] - times[0]
	rate := float64(len(times)-1) / span
	if !finite(rate) || rate <= 0 {
		return lockin.Acquisition{}, fmt.Errorf("%w: %d samples over %v s give no sample rate", ErrBadCSV, len(times), span)
	}

	acq := lockin.Acquisition{
		CarriersHz: carriers,
		Traces:     make([]sigproc.Trace, len(carriers)),
	}
	for c := range carriers {
		acq.Traces[c] = sigproc.Trace{Rate: rate, Samples: samples[c]}
	}
	return acq, nil
}

var (
	comma     = []byte{','}
	errQuoted = errors.New("quoted field")
)

// row returns the next non-blank line without its line ending, as
// encoding/csv reads lines: "\n" or "\r\n" end a line, and one "\r" before
// the end of the input is dropped. It returns io.EOF after the last row, and
// an error for a row holding a quote: no field of the format is quoted, so
// rows stay comparable to what encoding/csv parses. The row aliases the
// reader's buffer (or buf.long) until the next call.
func (buf *DecodeBuffer) row() ([]byte, error) {
	for {
		line, err := buf.rd.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			buf.long = append(buf.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = buf.rd.ReadSlice('\n')
				buf.long = append(buf.long, line...)
			}
			line = buf.long
		}
		if err != nil && (err != io.EOF || len(line) == 0) {
			return nil, err
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) == 0 {
			continue
		}
		if bytes.IndexByte(line, '"') >= 0 {
			return nil, errQuoted
		}
		return line, nil
	}
}

// channelHz parses a channel column exactly as appendRows writes it:
// "ch_", the frequency in strconv's decimal form, "Hz".
func channelHz(col []byte) (int64, bool) {
	digits, ok := bytes.CutPrefix(col, []byte("ch_"))
	if !ok {
		return 0, false
	}
	if digits, ok = bytes.CutSuffix(digits, []byte("Hz")); !ok {
		return 0, false
	}
	hz, err := strconv.ParseInt(string(digits), 10, 64)
	var canonical [20]byte
	return hz, err == nil && bytes.Equal(strconv.AppendInt(canonical[:0], hz, 10), digits)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// CompressAcquisition encodes the acquisition as CSV inside a zip archive —
// the exact payload the phone uploads — in one pass over the samples. The
// CSV is cut into segments as it is encoded, and GOMAXPROCS workers deflate
// the segments while later rows are still being written. The payload is one
// measurements.csv member holding one deflate stream; its bytes do not
// depend on the worker count, and at most a few segments of CSV are held at
// once however long the capture is (DESIGN.md §12).
func CompressAcquisition(acq lockin.Acquisition) ([]byte, error) {
	enc, err := newEncoder(acq)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	// At most two segments per worker exist at once: one in its hands and
	// one queued behind it, so the encoder rarely waits on a busy worker.
	// free and order can hold them all, so sends to them never block.
	maxSegments := 2 * workers
	free := make(chan *segment, maxSegments)
	order := make(chan *segment, maxSegments)
	jobs := make(chan *segment)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deflateSegments(jobs)
		}()
	}
	go cutSegments(enc, maxSegments, free, jobs, order)

	var (
		chunks     [][]byte
		crc        uint32
		raw, comp  uint64
		deflateErr error
	)
	for seg := range order {
		<-seg.done
		data := seg.csv[seg.window:]
		crc = crc32.Update(crc, crc32.IEEETable, data)
		raw += uint64(len(data))
		comp += uint64(seg.out.Len())
		chunks = append(chunks, bytes.Clone(seg.out.Bytes()))
		if deflateErr == nil {
			deflateErr = seg.err
		}
		free <- seg
	}
	wg.Wait()
	close(free)
	for seg := range free {
		segmentPool.Put(seg)
	}
	if deflateErr != nil {
		return nil, fmt.Errorf("csvio: compressing: %w", deflateErr)
	}

	var buf bytes.Buffer
	buf.Grow(int(comp) + archiveSlack)
	zw := zip.NewWriter(&buf)
	f, err := zw.CreateRaw(&zip.FileHeader{
		Name:               MeasurementsFileName,
		Method:             zip.Deflate,
		CreatorVersion:     20, // the versions zip.Writer.Create records
		ReaderVersion:      20,
		CRC32:              crc,
		CompressedSize64:   comp,
		UncompressedSize64: raw,
	})
	if err != nil {
		return nil, fmt.Errorf("csvio: creating archive member: %w", err)
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			return nil, fmt.Errorf("csvio: writing archive member: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("csvio: closing archive: %w", err)
	}
	return buf.Bytes(), nil
}

// archiveSlack bounds the archive's bytes around the deflate stream: local
// header, central directory and end record, in their zip64 forms too.
const archiveSlack = 512

// segment is one cut of the CSV on its way through the workers.
type segment struct {
	// csv is the window (the windowSize bytes before the segment; none for
	// the first) followed by the segment's own bytes.
	csv    []byte
	window int
	last   bool
	out    bytes.Buffer  // the segment's deflate blocks
	err    error         // from deflating it
	done   chan struct{} // receives once out and err are set
}

var segmentPool = sync.Pool{New: func() any {
	return &segment{
		csv:  make([]byte, 0, windowSize+segmentSize+rowSlack),
		done: make(chan struct{}, 1),
	}
}}

// cutSegments encodes the CSV into segmentSize cuts and hands each one to
// the collector through order and to a worker through jobs, in CSV order. It
// reuses the segments the collector returns on free and draws at most
// maxSegments from the pool. The window and any row past the cut are copied
// into the next segment before the cut leaves, so the collector may recycle
// it as soon as it is deflated.
func cutSegments(enc *encoder, maxSegments int, free <-chan *segment, jobs, order chan<- *segment) {
	defer close(jobs)
	defer close(order)
	drawn := 0
	take := func() *segment {
		if drawn < maxSegments {
			select {
			case seg := <-free:
				return seg
			default:
				drawn++
				return segmentPool.Get().(*segment)
			}
		}
		return <-free
	}
	cur := take()
	cur.csv, cur.window = cur.csv[:0], 0
	for {
		end := cur.window + segmentSize
		cur.csv = enc.appendRows(cur.csv, end)
		cur.last = enc.done() && len(cur.csv) <= end
		if cur.last {
			order <- cur
			jobs <- cur
			return
		}
		next := take()
		next.csv = append(next.csv[:0], cur.csv[end-windowSize:]...)
		next.window = windowSize
		cur.csv = cur.csv[:end]
		order <- cur
		jobs <- cur
		cur = next
	}
}

// deflateSegments deflates segments from jobs until it is closed. A worker
// that gets no segment takes no compressor.
func deflateSegments(jobs <-chan *segment) {
	var d *deflater
	for seg := range jobs {
		if d == nil {
			d = deflaterPool.Get().(*deflater)
		}
		seg.out.Reset()
		seg.err = d.deflate(seg)
		seg.done <- struct{}{}
	}
	if d != nil {
		deflaterPool.Put(d)
	}
}

// deflater is one worker's compressor, kept across segments and captures: a
// flate.Writer carries close to a megabyte of tables. flate.NewWriterDict
// would fix one dictionary per writer, so a segment is primed instead by
// compressing its window into io.Discard and sync-flushing: the window is
// then in the compressor's history, and its own blocks start on a byte
// boundary.
type deflater struct {
	fw  *flate.Writer
	dst redirect
}

// redirect is the flate.Writer's destination, switched between priming and
// the segment's own output.
type redirect struct{ io.Writer }

var deflaterPool = sync.Pool{New: func() any {
	d := new(deflater)
	d.fw, _ = flate.NewWriter(&d.dst, deflateLevel) // the level is valid
	return d
}}

// deflate compresses seg's own bytes into seg.out. Every segment but the
// last ends on a sync flush, which ends its blocks on a byte boundary
// without a final block, so the outputs concatenate into one deflate stream.
func (d *deflater) deflate(seg *segment) error {
	d.dst.Writer = io.Discard
	d.fw.Reset(&d.dst)
	if seg.window > 0 {
		if _, err := d.fw.Write(seg.csv[:seg.window]); err != nil {
			return err
		}
		if err := d.fw.Flush(); err != nil {
			return err
		}
	}
	d.dst.Writer = &seg.out
	if _, err := d.fw.Write(seg.csv[seg.window:]); err != nil {
		return err
	}
	if seg.last {
		return d.fw.Close()
	}
	return d.fw.Flush()
}

// DecompressAcquisition reverses CompressAcquisition.
func DecompressAcquisition(data []byte) (lockin.Acquisition, error) {
	return DecompressAcquisitionBuffer(data, nil)
}

// DecompressAcquisitionBuffer is DecompressAcquisition with sample storage
// drawn from buf (which may be nil); see DecodeAcquisitionBuffer for the
// aliasing contract.
func DecompressAcquisitionBuffer(data []byte, buf *DecodeBuffer) (lockin.Acquisition, error) {
	f, err := measurements(data)
	if err != nil {
		return lockin.Acquisition{}, err
	}
	rc, err := f.Open()
	if err != nil {
		return lockin.Acquisition{}, fmt.Errorf("csvio: opening member: %w", err)
	}
	defer rc.Close()
	return decodeAcquisition(rc, buf)
}

// MeasurementsSize returns the size of the CSV inside a payload as the
// archive's own header records it, without inflating anything.
func MeasurementsSize(data []byte) (int64, error) {
	f, err := measurements(data)
	if err != nil {
		return 0, err
	}
	return int64(f.UncompressedSize64), nil
}

// measurements finds the measurements member of a payload archive.
func measurements(data []byte) (*zip.File, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("csvio: opening archive: %w", err)
	}
	for _, f := range zr.File {
		if f.Name == MeasurementsFileName {
			return f, nil
		}
	}
	return nil, fmt.Errorf("csvio: archive lacks %s", MeasurementsFileName)
}
