// Package wire is the small binary codec under the engine checkpoint
// format: a magic/version header, fixed-width little-endian
// primitives, and a trailing CRC-32C over everything written, so a
// reader can reject truncated, corrupted, or version-skewed streams
// with a typed error before any of the payload is trusted. A stream
// may instead be split into sections, each with its own CRC-32C and
// located by a checksummed table at the end, so a reader with random
// access can decode the sections independently (Sections, NewSection).
// A section's Reader knows how many bytes the section has left, so a
// column's element count is checked against them before the caller
// allocates it (Count) and the elements decode in bulk (Column).
//
// The codec is deliberately dumb: no reflection, no varints, no
// schema. Layout knowledge lives entirely in the caller (one write
// call per field, mirrored by one read call), which keeps the format
// auditable byte for byte and the failure modes enumerable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
)

// Typed decode failures. Callers match with errors.Is; the returned
// errors wrap these sentinels with positional detail.
var (
	// ErrMagic means the stream does not start with the expected
	// 4-byte magic — it is not a stream of this format at all.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion means the magic matched but the format version is one
	// this build does not speak.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrChecksum means the payload parsed but its CRC-32C footer does
	// not match: the bytes were corrupted in flight or at rest.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrTruncated means the stream ended before the declared payload
	// (or the footer) was complete.
	ErrTruncated = errors.New("wire: truncated stream")
)

// castagnoli is the CRC-32C table; Castagnoli has hardware support on
// amd64/arm64, so checksumming never shows up in checkpoint profiles.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxSliceLen caps decoded slice and string lengths. Together with
// the grow-as-bytes-arrive decoding below (allocations track data
// actually read, never the declared length), a corrupted length
// prefix cannot drive a large allocation before the checksum is ever
// verified: on a finite stream it just runs into ErrTruncated.
const maxSliceLen = 1 << 28

// growChunk bounds how far ahead of the consumed bytes any decode
// allocation runs, and is the size of the Reader's read-ahead block.
const growChunk = 1 << 16

// Writer encodes primitives into its own growChunk block and hands
// the underlying io.Writer whole blocks, folding each into a running
// CRC-32C once (as Reader does on the way back), so a primitive costs
// a bounds check and a store. Errors are sticky: after the first write
// failure all further calls are no-ops and Close reports the error.
//
// A stream is one checksummed run of bytes until Section is first
// called; from then on it is sectioned: Section ends the current
// section with its own CRC-32C footer, and Close ends the last one and
// writes the section table (Sections reads it back).
type Writer struct {
	w     io.Writer
	magic string
	buf   []byte // the block; buf[sum:] is not yet folded into crc
	sum   int
	crc   uint32
	err   error
	off   int64 // bytes handed to w before buf
	// start is where the current section began; sections holds the
	// ended ones, nil while the stream is not sectioned.
	start    int64
	sections []Section
}

// Section locates one section of a sectioned stream: Len bytes at
// offset Off, its CRC-32C footer included. Section 0 starts at offset 0
// with the stream's magic and version.
type Section struct{ Off, Len int64 }

// NewWriter starts a stream: it writes the 4-byte magic and the
// format version before returning.
func NewWriter(w io.Writer, magic string, version uint32) *Writer {
	wr := &Writer{w: w, magic: magic, buf: make([]byte, 0, growChunk)}
	if len(magic) != 4 {
		wr.err = fmt.Errorf("wire: magic must be 4 bytes, got %d", len(magic))
		return wr
	}
	wr.write(magic)
	wr.Uint32(version)
	return wr
}

// room makes n (≤ growChunk) bytes of room at the end of the block,
// flushing it when short; false once the stream failed.
func (w *Writer) room(n int) bool {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
	return w.err == nil
}

// flush folds the rest of the block into the CRC and writes the block.
func (w *Writer) flush() {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.sum:])
	n, err := w.w.Write(w.buf)
	if err == nil && n != len(w.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = err
		return
	}
	w.off += int64(len(w.buf))
	w.buf, w.sum = w.buf[:0], 0
}

// write appends the bytes of s, a block at a time.
func (w *Writer) write(s string) {
	for len(s) > 0 && w.room(1) {
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}

// footer ends the current checksummed run: it appends the CRC-32C of
// the run, which is not itself folded, and restarts the CRC.
func (w *Writer) footer() {
	if !w.room(4) {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.sum:])
	w.buf = binary.LittleEndian.AppendUint32(w.buf, w.crc)
	w.sum, w.crc = len(w.buf), 0
}

// Section ends the current section with its CRC-32C footer and starts
// the next one, which has no header.
func (w *Writer) Section() {
	w.footer()
	end := w.off + int64(len(w.buf))
	w.sections = append(w.sections, Section{w.start, end - w.start})
	w.start = end
}

// Close writes the CRC-32C footer, flushes the block and returns the
// first error of the whole stream. A sectioned stream's Close ends the
// last section and then writes the section table: per section its
// offset and length as uint64s, the section count as a uint32, the
// magic again, and the CRC-32C of the table. Close does not close the
// underlying writer.
func (w *Writer) Close() error {
	if w.sections == nil {
		w.footer()
	} else {
		w.Section()
		for _, s := range w.sections {
			w.Uint64(uint64(s.Off))
			w.Uint64(uint64(s.Len))
		}
		w.Uint32(uint32(len(w.sections)))
		w.write(w.magic)
		w.footer()
	}
	w.flush()
	return w.err
}

// Uint8 writes one byte.
func (w *Writer) Uint8(v uint8) {
	if w.room(1) {
		w.buf = append(w.buf, v)
	}
}

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.Uint8(b)
}

// Uint32 writes a fixed-width little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	if w.room(4) {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// Uint64 writes a fixed-width little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	if w.room(8) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Int64 writes an int64 (two's complement, little-endian).
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.Int64(int64(v)) }

// Float64 writes the IEEE-754 bit pattern, so values round-trip bit
// for bit (NaN payloads and signed zeros included).
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String writes a length-prefixed byte string, copied straight into
// the block.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.write(s)
}

// Float64s writes a length-prefixed []float64.
func (w *Writer) Float64s(xs []float64) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Float64(x)
	}
}

// Int64s writes a length-prefixed []int64.
func (w *Writer) Int64s(xs []int64) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Int64(x)
	}
}

// Ints writes a length-prefixed []int (as int64s).
func (w *Writer) Ints(xs []int) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Int64(int64(x))
	}
}

// Int32s writes a length-prefixed []int32.
func (w *Writer) Int32s(xs []int32) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Uint32(uint32(x))
	}
}

// Blob writes the bytes of s with no length prefix: one piece of a
// blob whose total byte count the caller wrote first, such as a names
// column whose element boundaries travel as offsets.
func (w *Writer) Blob(s string) { w.write(s) }

// Strings writes a length-prefixed []string.
func (w *Writer) Strings(xs []string) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.String(x)
	}
}

// Reader decodes a stream produced by Writer. It reads the stream in
// blocks of growChunk bytes and decodes primitives straight out of
// the current block, folding each consumed block into the CRC once
// (and the last partial block at Close) so Close can verify the
// footer. Because it reads ahead, the position of the underlying
// reader after Close is unspecified: a caller cannot continue reading
// whatever follows the footer. Errors are sticky; once any read
// fails, all further reads return zero values and Err/Close report
// the failure.
type Reader struct {
	r   io.Reader
	buf []byte // one growChunk block; buf[pos:end] is unread
	pos int
	end int
	// buf[sum:pos] is consumed but not yet folded into crc.
	sum int
	crc uint32
	err error
	// left is how many bytes of the stream r has not delivered yet, or
	// -1 when the stream's length is unknown (NewReader).
	left int64
}

// NewReader validates the 4-byte magic and the format version before
// returning, so a stream of the wrong kind fails here with ErrMagic or
// ErrVersion, never half-parsed. The stream's version must equal
// version; a caller that reads more than one layout picks it with
// Version first.
func NewReader(r io.Reader, magic string, version uint32) (*Reader, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("wire: magic must be 4 bytes, got %d", len(magic))
	}
	rd := &Reader{r: r, buf: make([]byte, growChunk), left: -1}
	got := rd.next(4)
	if rd.err != nil {
		return nil, rd.err
	}
	if string(got) != magic {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrMagic, got, magic)
	}
	v := rd.Uint32()
	if rd.err != nil {
		return nil, rd.err
	}
	if v != version {
		return nil, fmt.Errorf("%w: stream is v%d, this build reads v%d", ErrVersion, v, version)
	}
	return rd, nil
}

// NewSection returns a Reader over sec, one headerless section of the
// sectioned stream r (any section but the first): its primitives, then
// its CRC-32C footer, which Close verifies against the section's
// bytes alone.
func NewSection(r io.ReaderAt, sec Section) *Reader {
	return &Reader{r: io.NewSectionReader(r, sec.Off, sec.Len), buf: make([]byte, growChunk), left: sec.Len}
}

// Version reads the 4-byte magic and the format version at the start
// of r, for a caller that reads more than one layout and must pick a
// decoder before reading on. A stream of the wrong kind fails with
// ErrMagic, one too short for a header with ErrTruncated.
func Version(r io.ReaderAt, magic string) (uint32, error) {
	var head [8]byte
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return 0, readErr(err)
	}
	if string(head[:4]) != magic {
		return 0, fmt.Errorf("%w: got %q, want %q", ErrMagic, head[:4], magic)
	}
	return binary.LittleEndian.Uint32(head[4:]), nil
}

// tableTrailer is the fixed end of a section table: the section
// count, the magic and the table's CRC-32C footer.
const tableTrailer = 12

// Sections reads the section table at the end of a sectioned stream
// of size bytes and verifies its checksum, so a caller knows where
// every section lies before decoding any of them. A stream that does
// not end in a table — one cut short, whatever the cut — fails with
// ErrTruncated, as does a table placing a section past the table's own
// start; a damaged table fails with ErrChecksum. The entries decode
// through a Reader block and grow as they arrive.
func Sections(r io.ReaderAt, size int64, magic string) ([]Section, error) {
	var tail [tableTrailer]byte
	if size < int64(len(tail)) {
		return nil, fmt.Errorf("%w: %d bytes hold no section table", ErrTruncated, size)
	}
	if _, err := r.ReadAt(tail[:], size-int64(len(tail))); err != nil {
		return nil, readErr(err)
	}
	if string(tail[4:8]) != magic {
		return nil, fmt.Errorf("%w: the stream does not end in a section table", ErrTruncated)
	}
	n := int64(binary.LittleEndian.Uint32(tail[:4]))
	at := size - tableTrailer - 16*n
	if at < 0 {
		return nil, fmt.Errorf("%w: a table of %d sections does not fit in %d bytes", ErrTruncated, n, size)
	}
	rd := NewSection(r, Section{at, size - at})
	var secs []Section
	for i := int64(0); i < n && rd.err == nil; i++ {
		secs = append(secs, Section{int64(rd.Uint64()), int64(rd.Uint64())})
	}
	rd.Uint32()
	rd.next(len(magic))
	if err := rd.Close(); err != nil {
		return nil, fmt.Errorf("section table: %w", err)
	}
	for i, s := range secs {
		if s.Off < 0 || s.Len < 0 || s.Len > at-s.Off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d), past the section table at %d",
				ErrTruncated, i, s.Off, s.Off+s.Len, at)
		}
	}
	return secs, nil
}

// readErr types a failed read: a short stream is ErrTruncated.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

// fill makes at least need (≤ growChunk) unread bytes available: it
// folds the consumed part of the block into the CRC, moves the unread
// tail to the front and reads as much as the block has room for.
// It reports false, with r.err set, when the stream cannot deliver.
func (r *Reader) fill(need int) bool {
	if r.err != nil {
		return false
	}
	r.crc = crc32.Update(r.crc, castagnoli, r.buf[r.sum:r.pos])
	r.end = copy(r.buf, r.buf[r.pos:r.end])
	r.pos, r.sum = 0, 0
	n, err := io.ReadAtLeast(r.r, r.buf[r.end:], need-r.end)
	r.end += n
	if r.left >= 0 {
		r.left -= int64(n)
	}
	if err != nil {
		r.err = readErr(err)
		return false
	}
	return true
}

// next consumes n (≤ growChunk) bytes and returns them as a view into
// the block, valid until the next read; nil once the stream failed.
func (r *Reader) next(n int) []byte {
	if r.err != nil || r.end-r.pos < n && !r.fill(n) {
		return nil
	}
	b := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// elems consumes between one and remaining whole size-byte elements
// — as many as the block holds — and returns their bytes; nil once
// the stream failed.
func (r *Reader) elems(remaining, size int) []byte {
	if r.err != nil || r.end-r.pos < size && !r.fill(size) {
		return nil
	}
	k := min(remaining, (r.end-r.pos)/size)
	return r.next(k * size)
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// fail records the first error (used by length-guard checks).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Close reads the 4-byte CRC footer and verifies it against every
// byte consumed since NewReader. A short footer is
// ErrTruncated; a mismatch is ErrChecksum.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	// Fold the last partial block before the footer is consumed.
	want := crc32.Update(r.crc, castagnoli, r.buf[r.sum:r.pos])
	r.crc, r.sum = want, r.pos
	foot := r.next(4)
	if r.err != nil {
		if errors.Is(r.err, ErrTruncated) {
			r.err = fmt.Errorf("%w: missing checksum footer", ErrTruncated)
		}
		return r.err
	}
	if got := binary.LittleEndian.Uint32(foot); got != want {
		r.err = fmt.Errorf("%w: footer %08x, computed %08x", ErrChecksum, got, want)
	}
	return r.err
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.next(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte written by Writer.Bool; any nonzero byte is true.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.next(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.next(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads an int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Int reads an int64 written by Writer.Int.
func (r *Reader) Int() int { return int(r.Int64()) }

// Float64 reads an IEEE-754 bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Len reads the length prefix of a string or slice and guards it: a
// count above the 2^28 cap fails with ErrTruncated, the class of every
// prefix that declares more than the decoder will read. A caller that
// decodes the elements itself must still grow its buffer as they
// arrive, never preallocate the declared count.
func (r *Reader) Len() int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen {
		r.fail(fmt.Errorf("%w: length %d exceeds cap %d", ErrTruncated, n, maxSliceLen))
		return 0
	}
	return int(n)
}

// footerLen is the size of the CRC-32C footer that ends a stream or a
// section.
const footerLen = 4

// Count reads the element count of a column of size-byte elements, as
// Len reads a length prefix, and checks that the elements fit in the
// section (Fits): a count that cannot is ErrTruncated, so the caller
// may allocate the count exactly before a byte of the column arrives.
func (r *Reader) Count(size int) int {
	n := r.Len()
	if !r.Fits(int64(n), size) {
		return 0
	}
	return n
}

// Fits reports whether n elements of size bytes fit in the bytes a
// section's Reader (NewSection) has left before the section's footer,
// and fails the reader with ErrTruncated when they do not. A Reader
// from NewReader knows no length, and a failed one has nothing left:
// Fits reports true for the first and false for the second.
func (r *Reader) Fits(n int64, size int) bool {
	if r.err != nil {
		return false
	}
	if r.left < 0 {
		return true
	}
	if avail := r.left + int64(r.end-r.pos) - footerLen; n > avail/int64(size) {
		r.fail(fmt.Errorf("%w: %d elements of %d bytes, %d bytes left in the section", ErrTruncated, n, size, max(avail, 0)))
		return false
	}
	return true
}

// Column decodes a column of n size-byte elements in bulk: it hands fn
// the bytes of as many whole elements as the read-ahead block holds,
// in order, one call per block, until all n have arrived or the stream
// fails. fn decodes them in one loop and must not keep b.
func (r *Reader) Column(n, size int, fn func(b []byte)) {
	for n > 0 {
		b := r.elems(n, size)
		if b == nil {
			return
		}
		fn(b)
		n -= len(b) / size
	}
}

// String reads a length-prefixed byte string. One that fits in a
// block costs a single allocation, the string itself; a longer one
// grows as its bytes actually arrive (AppendString).
func (r *Reader) String() string {
	n := r.Len()
	if r.err != nil || n == 0 {
		return ""
	}
	if n <= growChunk {
		b := r.next(n)
		if b == nil {
			return ""
		}
		return string(b)
	}
	var sb strings.Builder
	sb.Grow(growChunk)
	r.AppendString(&sb, n)
	if r.err != nil {
		return ""
	}
	return sb.String()
}

// AppendString reads the n bytes of a string whose length prefix the
// caller has read with Len, and appends them to sb as they arrive. It
// allocates only when sb has less than n bytes of room, so a caller
// that grows one Builder as a block and takes each string as a
// substring of it decodes many strings with no allocation apiece. On a
// failed stream it appends what arrived before the failure.
func (r *Reader) AppendString(sb *strings.Builder, n int) {
	for n > 0 {
		b := r.elems(n, 1)
		if b == nil {
			return
		}
		sb.Write(b)
		n -= len(b)
	}
}

// The slice decoders below check a length prefix against the bytes
// left before they allocate by it. A section's Reader (NewSection)
// knows them, so a count that fits (Count) is allocated once, exactly;
// a Reader from NewReader does not, so its result starts empty and
// grows only by what each block actually delivers (Strings: as
// strings arrive). Either way a lying length prefix ends in
// ErrTruncated having allocated in proportion to the bytes read, not
// the count. The fixed-width ones decode every whole element the
// block holds in one loop per refill.

// reserve is how many of n declared elements a decoder allocates
// before they arrive: all of them on a section's Reader, which has
// checked that they fit, none on a Reader that knows no length.
func (r *Reader) reserve(n int) int {
	if r.left < 0 {
		return 0
	}
	return n
}

// slice reads a length-prefixed slice of size-byte elements, each
// decoded by dec (nil when empty).
func slice[T any](r *Reader, size int, dec func(b []byte) T) []T {
	n := r.Count(size)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]T, 0, r.reserve(n))
	r.Column(n, size, func(b []byte) {
		xs = slices.Grow(xs, len(b)/size)
		for ; len(b) > 0; b = b[size:] {
			xs = append(xs, dec(b))
		}
	})
	if r.err != nil {
		return nil
	}
	return xs
}

// Float64s reads a length-prefixed []float64 (nil when empty).
func (r *Reader) Float64s() []float64 {
	return slice(r, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

// AppendFloat64s decodes n float64s, whose count the caller has read
// with Len or Count, and appends them to dst; nil once the stream
// failed. A dst with room for n decodes with no allocation.
func (r *Reader) AppendFloat64s(dst []float64, n int) []float64 {
	for want := len(dst) + n; len(dst) < want; {
		b := r.elems(want-len(dst), 8)
		if b == nil {
			return nil
		}
		dst = slices.Grow(dst, len(b)/8)
		for i := 0; i < len(b); i += 8 {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
	}
	return dst
}

// Int64s reads a length-prefixed []int64 (nil when empty).
func (r *Reader) Int64s() []int64 {
	return slice(r, 8, func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) })
}

// Ints reads a length-prefixed []int (nil when empty).
func (r *Reader) Ints() []int {
	return slice(r, 8, func(b []byte) int { return int(int64(binary.LittleEndian.Uint64(b))) })
}

// Int32s reads a length-prefixed []int32 (nil when empty).
func (r *Reader) Int32s() []int32 {
	return slice(r, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) })
}

// Strings reads a length-prefixed []string (nil when empty). The
// strings are substrings of shared blocks, which double from 64 bytes
// up to growChunk as strings arrive, so a table of short strings costs
// a few allocations rather than one per string; a string longer than
// a block is decoded on its own, as String decodes it. A block stays
// reachable while any string cut from it does.
func (r *Reader) Strings() []string {
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]string, 0, r.reserve(n))
	var blk strings.Builder
	for i := 0; i < n; i++ {
		k := r.Len()
		if !r.Fits(int64(k), 1) {
			return nil
		}
		if k > growChunk {
			var long strings.Builder
			r.AppendString(&long, k)
			xs = append(xs, long.String())
			continue
		}
		if blk.Cap()-blk.Len() < k {
			size := min(max(k, 2*blk.Cap(), 64), growChunk)
			blk.Reset()
			blk.Grow(size)
		}
		lo := blk.Len()
		r.AppendString(&blk, k)
		xs = append(xs, blk.String()[lo:])
	}
	if r.err != nil {
		return nil
	}
	return xs
}
