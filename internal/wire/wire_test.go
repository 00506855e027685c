package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

const (
	testMagic   = "TSTW"
	testVersion = uint32(3)
)

// writeSample encodes one value of every primitive the codec speaks.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, testVersion)
	w.Uint8(7)
	w.Bool(true)
	w.Bool(false)
	w.Uint32(0xdeadbeef)
	w.Uint64(1 << 62)
	w.Int64(-42)
	w.Int(-1)
	w.Float64(math.Pi)
	w.Float64(math.Copysign(0, -1)) // signed zero must round-trip
	w.String("hello, wire")
	w.String("")
	w.Float64s([]float64{1.5, -2.25, math.Inf(1)})
	w.Int64s([]int64{-1, 0, 1})
	w.Ints([]int{3, 1, 4})
	w.Int32s([]int32{-7, 7})
	w.Strings([]string{"a", "", "bc"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := writeSample(t)
	r, err := NewReader(bytes.NewReader(b), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Uint8(); got != 7 {
		t.Errorf("Uint8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<62 {
		t.Errorf("Uint64 = %x", got)
	}
	if got := r.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Float64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("signed zero lost: %v", got)
	}
	if got := r.String(); got != "hello, wire" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	fs := r.Float64s()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.25 || !math.IsInf(fs[2], 1) {
		t.Errorf("Float64s = %v", fs)
	}
	is := r.Int64s()
	if len(is) != 3 || is[0] != -1 || is[2] != 1 {
		t.Errorf("Int64s = %v", is)
	}
	ints := r.Ints()
	if len(ints) != 3 || ints[0] != 3 || ints[2] != 4 {
		t.Errorf("Ints = %v", ints)
	}
	i32 := r.Int32s()
	if len(i32) != 2 || i32[0] != -7 || i32[1] != 7 {
		t.Errorf("Int32s = %v", i32)
	}
	ss := r.Strings()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "bc" {
		t.Errorf("Strings = %v", ss)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	b := writeSample(t)
	if _, err := NewReader(bytes.NewReader(b), "NOPE", testVersion); !errors.Is(err, ErrMagic) {
		t.Errorf("err = %v, want ErrMagic", err)
	}
	// An invalid magic length is a caller bug, not a typed stream error.
	if _, err := NewReader(bytes.NewReader(b), "LONGMAGIC", testVersion); err == nil {
		t.Error("long magic accepted")
	}
	if w := NewWriter(&bytes.Buffer{}, "XY", 1); w.err == nil {
		t.Error("short writer magic accepted")
	}
}

func TestVersionSkew(t *testing.T) {
	b := writeSample(t)
	_, err := NewReader(bytes.NewReader(b), testMagic, testVersion+1)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	b := writeSample(t)
	// Flip a bit in the footer so the payload still parses.
	b[len(b)-1] ^= 0x01
	r, err := NewReader(bytes.NewReader(b), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	drainSample(r)
	if err := r.Close(); !errors.Is(err, ErrChecksum) {
		t.Errorf("Close = %v, want ErrChecksum", err)
	}
}

func TestPayloadCorruptionCaughtByChecksum(t *testing.T) {
	b := writeSample(t)
	// Flip a payload bit (the Uint64 field). The value parses fine but
	// Close must reject the stream.
	b[20] ^= 0x80
	r, err := NewReader(bytes.NewReader(b), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	drainSample(r)
	if err := r.Close(); !errors.Is(err, ErrChecksum) {
		t.Errorf("Close = %v, want ErrChecksum", err)
	}
}

func TestTruncation(t *testing.T) {
	b := writeSample(t)
	// Every strict prefix must fail with ErrTruncated somewhere —
	// either mid-read or at Close (missing footer). Never a panic,
	// never a silent success.
	for cut := 0; cut < len(b); cut++ {
		r, err := NewReader(bytes.NewReader(b[:cut]), testMagic, testVersion)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut=%d: NewReader err = %v, want ErrTruncated", cut, err)
			}
			continue
		}
		drainSample(r)
		if err := r.Close(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: Close = %v, want ErrTruncated", cut, err)
		}
	}
}

// drainSample reads the sample payload, tolerating sticky errors.
func drainSample(r *Reader) {
	r.Uint8()
	r.Bool()
	r.Bool()
	r.Uint32()
	r.Uint64()
	r.Int64()
	r.Int()
	r.Float64()
	r.Float64()
	_ = r.String()
	_ = r.String()
	r.Float64s()
	r.Int64s()
	r.Ints()
	r.Int32s()
	r.Strings()
}

// TestLyingLengthHitsTruncationNotOOM: a cap-passing but absurd
// length prefix backed by almost no data must fail with ErrTruncated
// after allocating in proportion to the bytes actually present — not
// preallocate the declared length.
func TestLyingLengthHitsTruncationNotOOM(t *testing.T) {
	build := func(write func(w *Writer)) *Reader {
		var buf bytes.Buffer
		w := NewWriter(&buf, testMagic, testVersion)
		write(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := build(func(w *Writer) {
		w.Uint32(maxSliceLen - 1) // claims ~256M floats...
		w.Float64(1)              // ...delivers one
	})
	if xs := r.Float64s(); xs != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Float64s = %d elems, err = %v; want nil + ErrTruncated", len(xs), r.Err())
	}
	r = build(func(w *Writer) {
		w.Uint32(maxSliceLen - 1) // claims a ~256MB string...
		w.Uint8('x')              // ...delivers one byte
	})
	if s := r.String(); s != "" || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("String = %d bytes, err = %v; want empty + ErrTruncated", len(s), r.Err())
	}
}

func TestLengthGuard(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, testVersion)
	w.Uint32(maxSliceLen + 1) // a hand-rolled oversized length prefix
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.String(); s != "" || r.Err() == nil {
		t.Errorf("oversized length accepted: %q, err=%v", s, r.Err())
	}
}

// failWriter fails after n bytes, to exercise sticky write errors.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&failWriter{n: 6}, testMagic, testVersion)
	for i := 0; i < 100; i++ {
		w.Float64(1)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close = %v, want disk full", err)
	}
}

// TestNewReader covers the header check: a stream of the reader's
// version decodes, a stream of any other version fails with
// ErrVersion, a wrong magic with ErrMagic and a short header with
// ErrTruncated.
func TestNewReader(t *testing.T) {
	b := writeSample(t)
	r, err := NewReader(bytes.NewReader(b), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Uint8(); got != 7 {
		t.Errorf("payload after the header: Uint8 = %d", got)
	}
	for _, v := range []uint32{1, testVersion - 1, testVersion + 1} {
		if _, err := NewReader(bytes.NewReader(b), testMagic, v); !errors.Is(err, ErrVersion) {
			t.Errorf("reader for v%d: err = %v, want ErrVersion", v, err)
		}
	}
	if _, err := NewReader(bytes.NewReader(b), "WRNG", testVersion); !errors.Is(err, ErrMagic) {
		t.Errorf("wrong magic: err = %v, want ErrMagic", err)
	}
	if _, err := NewReader(strings.NewReader("TS"), testMagic, testVersion); !errors.Is(err, ErrTruncated) {
		t.Errorf("short stream: err = %v, want ErrTruncated", err)
	}
}

// sinkString and sinkFloats keep decoded values alive so the
// allocation pins below measure what a real caller pays.
var (
	sinkString string
	sinkFloats []float64
)

// TestReaderAllocs pins the decode cost the block reader buys: a
// short string is exactly its own allocation (no scratch array), and
// a short fixed-width slice is exactly the slice. The stream is long
// enough that the runs cross block refills, which must not allocate.
func TestReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const runs = 5000
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, testVersion)
	for i := 0; i <= runs; i++ {
		w.String("0123456789abcdef")
	}
	for i := 0; i <= runs; i++ {
		w.Float64s([]float64{1, 2, 3, 4})
	}
	// The same values again, for the Append decoders.
	for i := 0; i <= runs; i++ {
		w.String("0123456789abcdef")
	}
	for i := 0; i <= runs; i++ {
		w.Float64s([]float64{1, 2, 3, 4})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dw := NewWriter(io.Discard, testMagic, testVersion)
	if a := testing.AllocsPerRun(runs, func() { dw.String("0123456789abcdef") }); a != 0 {
		t.Errorf("Writer.String of 16 bytes: %v allocs, want 0", a)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(runs, func() { sinkString = r.String() }); a != 1 {
		t.Errorf("String of 16 bytes: %v allocs, want 1", a)
	}
	if a := testing.AllocsPerRun(runs, func() { sinkFloats = r.Float64s() }); a != 1 {
		t.Errorf("Float64s of 4 elements: %v allocs, want 1", a)
	}
	if sinkString != "0123456789abcdef" || len(sinkFloats) != 4 || sinkFloats[3] != 4 {
		t.Fatalf("decoded %q, %v", sinkString, sinkFloats)
	}
	// With room in the destination, the Append decoders allocate nothing.
	var sb strings.Builder
	sb.Grow(16 * (runs + 1))
	if a := testing.AllocsPerRun(runs, func() { r.AppendString(&sb, r.Len()) }); a != 0 {
		t.Errorf("AppendString of 16 bytes: %v allocs, want 0", a)
	}
	dst := make([]float64, 0, 4)
	if a := testing.AllocsPerRun(runs, func() { dst = r.AppendFloat64s(dst[:0], r.Len()) }); a != 0 {
		t.Errorf("AppendFloat64s of 4 elements: %v allocs, want 0", a)
	}
	if got := sb.String(); got != strings.Repeat("0123456789abcdef", runs+1) || len(dst) != 4 || dst[3] != 4 {
		t.Fatalf("appended %d bytes, %v", len(got), dst)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLongValuesSpanBlocks round-trips a string and slices longer
// than one read-ahead block, through a reader that hands out one byte
// at a time, so every element boundary lands on a refill somewhere.
func TestLongValuesSpanBlocks(t *testing.T) {
	long := strings.Repeat("0123456789", 3*growChunk/10+7)
	fs := make([]float64, growChunk/8*2+3)
	is := make([]int32, growChunk/4+5)
	for i := range fs {
		fs[i] = float64(i) / 3
	}
	for i := range is {
		is[i] = int32(-i)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, testVersion)
	w.Uint8(1) // misalign everything after it
	w.String(long)
	w.Float64s(fs)
	w.Int32s(is)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(iotest.OneByteReader(bytes.NewReader(buf.Bytes())), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	r.Uint8()
	if got := r.String(); got != long {
		t.Errorf("long string: got %d bytes, want %d", len(got), len(long))
	}
	if got := r.Float64s(); !slices.Equal(got, fs) {
		t.Errorf("long Float64s: got %d elements, want %d", len(got), len(fs))
	}
	if got := r.Int32s(); !slices.Equal(got, is) {
		t.Errorf("long Int32s: got %d elements, want %d", len(got), len(is))
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSections round-trips a sectioned stream: the table locates each
// section, the first decodes with NewReader and the rest with
// NewSection, each verified by its own footer. Cut at any byte, the
// stream fails to yield its table with ErrTruncated or ErrChecksum;
// a flipped byte inside a section fails that section alone.
func TestSections(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, testVersion)
	w.String("main")
	w.Section()
	w.Float64s([]float64{1, 2, 3})
	w.Section()
	w.Strings([]string{"tail"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	secs, err := Sections(bytes.NewReader(b), int64(len(b)), testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 3 || secs[0].Off != 0 || secs[1].Off != secs[0].Len || secs[2].Off != secs[1].Off+secs[1].Len {
		t.Fatalf("sections %v", secs)
	}
	open := func(data []byte, i int) *Reader {
		sr := io.NewSectionReader(bytes.NewReader(data), secs[i].Off, secs[i].Len)
		if i > 0 {
			return NewSection(sr)
		}
		r, err := NewReader(sr, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open(b, 2)
	if got := r.Strings(); len(got) != 1 || got[0] != "tail" {
		t.Errorf("tail decoded %v", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("tail: %v", err)
	}
	r = open(b, 1)
	if got := r.Float64s(); !slices.Equal(got, []float64{1, 2, 3}) {
		t.Errorf("middle decoded %v", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("middle: %v", err)
	}
	r = open(b, 0)
	if got := r.String(); got != "main" {
		t.Errorf("main decoded %q", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("main: %v", err)
	}
	for cut := 0; cut < len(b); cut++ {
		_, err := Sections(bytes.NewReader(b[:cut]), int64(cut), testMagic)
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("cut at %d: %v, want ErrTruncated or ErrChecksum", cut, err)
		}
	}
	flipped := slices.Clone(b)
	flipped[secs[1].Off+5] ^= 0x01
	r = open(flipped, 1)
	r.Float64s()
	if err := r.Close(); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped middle section: %v, want ErrChecksum", err)
	}
	r = open(flipped, 2)
	r.Strings()
	if err := r.Close(); err != nil {
		t.Errorf("the tail after a flipped middle section: %v", err)
	}
}
