package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"
)

// fuzzMagic matches the checkpoint magic so the committed corpus can
// double as near-miss checkpoint headers.
const fuzzMagic = "SFCK"

// validStream builds a well-formed stream exercising every encoder,
// used both as a fuzz seed and as the round-trip reference.
func validStream() []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, fuzzMagic, 3)
	w.Uint8(7)
	w.Bool(true)
	w.Uint32(123456)
	w.Uint64(1 << 40)
	w.Int(-42)
	w.Float64(3.14159)
	w.String("claims")
	w.Strings([]string{"a", "bb", ""})
	w.Float64s([]float64{1, 2.5})
	w.Int64s([]int64{-1, 9})
	w.Ints([]int{3})
	w.Int32s([]int32{-7, 7})
	w.Close()
	return buf.Bytes()
}

// decoded is everything the fuzz read schedule yields, floats kept
// as bit patterns so NaN payloads compare exactly.
type decoded struct {
	u8   uint8
	b    bool
	u32  uint32
	u64  uint64
	n    int
	f    uint64
	s    string
	ss   []string
	fs   []uint64
	is   []int64
	ns   []int
	i32  []int32
	errs [2]int // errClass of NewReader and of Close
}

// sentinels are the typed decode failures errClass tells apart.
var sentinels = []error{ErrMagic, ErrVersion, ErrChecksum, ErrTruncated}

// errClass maps an error to -1 (nil), the index of the first
// sentinel it matches, or len(sentinels) for any other error, which
// FuzzDecode rejects: every decode failure is typed.
func errClass(err error) int {
	if err == nil {
		return -1
	}
	for i, s := range sentinels {
		if errors.Is(err, s) {
			return i
		}
	}
	return len(sentinels)
}

// decodeSchedule reads src with the same schedule the valid stream
// was written with.
func decodeSchedule(src io.Reader) decoded {
	var d decoded
	r, err := NewReader(src, fuzzMagic, 3)
	d.errs[0] = errClass(err)
	if err != nil {
		return d
	}
	d.u8 = r.Uint8()
	d.b = r.Bool()
	d.u32 = r.Uint32()
	d.u64 = r.Uint64()
	d.n = r.Int()
	d.f = math.Float64bits(r.Float64())
	d.s = r.String()
	d.ss = r.Strings()
	for _, x := range r.Float64s() {
		d.fs = append(d.fs, math.Float64bits(x))
	}
	d.is = r.Int64s()
	d.ns = r.Ints()
	d.i32 = r.Int32s()
	d.errs[1] = errClass(r.Close())
	return d
}

// FuzzDecode throws arbitrary bytes at the reader with the same read
// schedule the valid stream uses, and checks the decoder's contracts:
// it never panics; every failure matches one of the typed sentinels,
// a length prefix over the cap included; its allocations track bytes
// actually present —
// every decoded string or slice is bounded by the input's own length,
// no matter what the length prefixes claim; and where the underlying
// reader splits the stream (one byte at a time, half reads, EOF
// delivered with the last data) changes neither the values nor the
// error class, so block read-ahead is invisible to callers.
func FuzzDecode(f *testing.F) {
	f.Add(validStream())
	f.Add([]byte("SFCK"))
	f.Add([]byte{})
	// Version accepted, then a lying length prefix.
	f.Add(append([]byte{'S', 'F', 'C', 'K', 3, 0, 0, 0}, 0xff, 0xff, 0xff, 0x0f))
	// The scalars, then a string length prefix over the cap.
	overCap := append([]byte{'S', 'F', 'C', 'K', 3, 0, 0, 0}, make([]byte, 30)...)
	f.Add(append(overCap, 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeSchedule(bytes.NewReader(data))
		for i, c := range d.errs {
			if c == len(sentinels) {
				t.Fatalf("decode step %d failed with an untyped error", i)
			}
		}
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"OneByteReader": iotest.OneByteReader,
			"HalfReader":    iotest.HalfReader,
			"DataErrReader": iotest.DataErrReader,
		} {
			if got := decodeSchedule(wrap(bytes.NewReader(data))); !reflect.DeepEqual(got, d) {
				t.Fatalf("%s decode differs from plain:\n got %+v\nwant %+v", name, got, d)
			}
		}

		bound := len(data)
		if len(d.s) > bound {
			t.Fatalf("decoded string of %d bytes from a %d-byte input", len(d.s), bound)
		}
		total := 0
		for _, x := range d.ss {
			total += len(x)
		}
		if total > bound || len(d.ss) > bound {
			t.Fatalf("decoded %d strings / %d bytes from a %d-byte input", len(d.ss), total, bound)
		}
		for _, n := range []int{len(d.fs) * 8, len(d.is) * 8, len(d.ns) * 8, len(d.i32) * 4} {
			if n > bound {
				t.Fatalf("decoded slice of %d payload bytes from a %d-byte input", n, bound)
			}
		}
	})
}

// FuzzRoundTrip: any byte string survives a String write/read cycle
// bit for bit, and the checksum accepts what the writer produced.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add([]byte{0, 1, 2, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf, fuzzMagic, 1)
		w.String(string(payload))
		w.Int(len(payload))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), fuzzMagic, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := r.String()
		n := r.Int()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got != string(payload) || n != len(payload) {
			t.Fatalf("round trip mangled %q -> %q (n=%d)", payload, got, n)
		}
	})
}
