// The one row-writer both output formats share: a Result streams
// through WriteCSV (the legacy-compatible default: floats as %.4f)
// or WriteNDJSON (one JSON object per line, floats in shortest
// round-trippable form — the cluster's internal scatter format,
// because encoding/json's float64 parsing restores the exact bits).
package query

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// WriteCSV streams a result as CSV: a header row of column names,
// then one record per row with floats rendered %.4f (the format the
// unqueried /estimates and /sources endpoints have always used). A
// float in [0, 1], which every confidence and contestedness is, is
// formatted by fixed4 without allocating; any other float goes
// through strconv. Either way a cell's bytes are exactly
// strconv.FormatFloat(v, 'f', 4, 64). The bytes are encoding/csv's
// with its defaults (',' and "\n"): numeric cells never need quoting
// (the formatters write digits, '.', '-', '+', "Inf" and "NaN" only),
// and names and string cells go through writeCSVString.
func WriteCSV(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	for i, c := range res.Cols {
		if i > 0 {
			bw.WriteByte(',')
		}
		writeCSVString(bw, c.Name)
	}
	bw.WriteByte('\n')
	for row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				bw.WriteByte(',')
			}
			switch v.Kind {
			case KindString:
				writeCSVString(bw, v.Str)
			case KindInt:
				bw.Write(strconv.AppendInt(bw.AvailableBuffer(), v.Int, 10))
			default:
				bw.WriteString(fixed4(v.Num))
			}
		}
		// A bufio.Writer's errors are sticky: this reports any failed
		// write of the row.
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeCSVString writes s as encoding/csv writes a field: as it is,
// or in quotes with each quote doubled when csvNeedsQuotes(s).
func writeCSVString(bw *bufio.Writer, s string) {
	if !csvNeedsQuotes(s) {
		bw.WriteString(s)
		return
	}
	bw.WriteByte('"')
	bw.WriteString(strings.ReplaceAll(s, `"`, `""`))
	bw.WriteByte('"')
}

// csvNeedsQuotes reports whether encoding/csv quotes s: s is not
// empty, and it holds a comma, quote, CR or LF, is `\.`, or starts
// with a Unicode space.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// fixed4Table is the text of every float in [0, 1] rounded to four
// decimals, "0.0000" through "1.0000", six bytes each.
var fixed4Table = func() string {
	b := make([]byte, 0, 6*10001)
	for k := 0; k <= 10000; k++ {
		b = append(b, byte('0'+k/10000), '.', byte('0'+k/1000%10), byte('0'+k/100%10), byte('0'+k/10%10), byte('0'+k%10))
	}
	return string(b)
}()

// fixed4 returns strconv.FormatFloat(v, 'f', 4, 64). For v in [+0, 1]
// it rounds v·10000 to an integer k exactly, half to even as strconv
// does, and returns the k-th fixed4Table entry: no allocation and
// none of strconv's multi-precision work, which 'f' with a fixed
// precision always takes. With v = mant·2^(exp-1075), v·10000 is
// mant·625 (below 2^63, so exact in a uint64) shifted right by
// 1071-exp bits, which is at least 48 for v ≤ 1.
func fixed4(v float64) string {
	b := math.Float64bits(v)
	if b > math.Float64bits(1) { // negative (sign bit set), above 1, Inf or NaN
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
	mant, exp := b&(1<<52-1), b>>52
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit, same scale as the smallest normal
	} else {
		mant |= 1 << 52
	}
	n, shift := mant*625, 1071-exp
	if shift >= 64 { // n < 2^63 ≤ half a unit: v·10000 < 1/2
		return fixed4Table[:6]
	}
	k := n >> shift
	rem, half := n&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || rem == half && k&1 == 1 {
		k++
	}
	return fixed4Table[6*k : 6*k+6]
}

// WriteNDJSON streams a result as newline-delimited JSON objects in
// column order, one per row. Floats use the shortest representation
// that round-trips bit-exactly, so a reader that parses and re-emits
// (the cluster router) reproduces the member's bytes.
func WriteNDJSON(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	keys := make([][]byte, len(res.Cols))
	for i, c := range res.Cols {
		k, err := json.Marshal(c.Name)
		if err != nil {
			return err
		}
		keys[i] = append(k, ':')
	}
	var buf []byte
	for row := range res.Rows {
		buf = buf[:0]
		buf = append(buf, '{')
		for i, v := range row {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, keys[i]...)
			switch v.Kind {
			case KindString:
				s, err := json.Marshal(v.Str)
				if err != nil {
					return err
				}
				buf = append(buf, s...)
			case KindFloat:
				buf = strconv.AppendFloat(buf, v.Num, 'g', -1, 64)
			default:
				buf = strconv.AppendInt(buf, v.Int, 10)
			}
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses a WriteNDJSON stream back into typed rows against
// a known schema — the router's member-response decoder. Numbers are
// kept as json.Number internally so int64 cells survive exactly and
// float cells restore their original bits.
func ReadNDJSON(r io.Reader, cols []Column) ([][]Val, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var rows [][]Val
	for {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return rows, nil
			}
			return nil, fmt.Errorf("ndjson row %d: %w", len(rows)+1, err)
		}
		row := make([]Val, len(cols))
		for i, c := range cols {
			raw, ok := m[c.Name]
			if !ok {
				return nil, fmt.Errorf("ndjson row %d: missing column %q", len(rows)+1, c.Name)
			}
			switch c.Kind {
			case KindString:
				s, okS := raw.(string)
				if !okS {
					return nil, fmt.Errorf("ndjson row %d: column %q is not a string", len(rows)+1, c.Name)
				}
				row[i] = Val{Kind: KindString, Str: s}
			default:
				n, okN := raw.(json.Number)
				if !okN {
					return nil, fmt.Errorf("ndjson row %d: column %q is not a number", len(rows)+1, c.Name)
				}
				if c.Kind == KindInt {
					v, err := strconv.ParseInt(n.String(), 10, 64)
					if err != nil {
						return nil, fmt.Errorf("ndjson row %d: column %q: %w", len(rows)+1, c.Name, err)
					}
					row[i] = Val{Kind: KindInt, Int: v}
				} else {
					v, err := n.Float64()
					if err != nil {
						return nil, fmt.Errorf("ndjson row %d: column %q: %w", len(rows)+1, c.Name, err)
					}
					row[i] = Val{Kind: KindFloat, Num: v}
				}
			}
		}
		rows = append(rows, row)
	}
}

// Write streams a result in the named format: "csv" (default) or
// "json"/"ndjson".
func Write(w io.Writer, res *Result, format string) error {
	switch format {
	case "", "csv":
		return WriteCSV(w, res)
	case "json", "ndjson":
		return WriteNDJSON(w, res)
	default:
		return fmt.Errorf("unknown format %q (want csv or json)", format)
	}
}
