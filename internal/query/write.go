// The one row-writer both output formats share: a Result streams
// through WriteCSV (the legacy-compatible default: floats as %.4f)
// or WriteNDJSON (one JSON object per line, floats in shortest
// round-trippable form — the cluster's internal scatter format,
// because encoding/json's float64 parsing restores the exact bits).
package query

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV streams a result as CSV: a header row of column names,
// then one record per row with floats rendered %.4f (the format the
// unqueried /estimates and /sources endpoints have always used).
func WriteCSV(w io.Writer, res *Result) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(res.Cols))
	for i, c := range res.Cols {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	record := make([]string, len(res.Cols))
	var num []byte // float cells format here: one allocation each, not FormatFloat's two
	for row := range res.Rows {
		for i, v := range row {
			if v.Kind == KindFloat {
				num = strconv.AppendFloat(num[:0], v.Num, 'f', 4, 64)
				record[i] = string(num)
				continue
			}
			record[i] = v.String()
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
