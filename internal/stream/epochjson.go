// The canonical epoch records: the bodies of the /v1/epoch/{drain,
// mass,apply} coordination exchange between the cluster router and its
// members. The router posts an EpochRequest as json.Marshal writes it,
//
//	{"tag":"…","accuracies":[{"source":"…","accuracy":…},…],"rescore":true}
//
// and a member answers a drain or mass with the reply json.Encoder
// writes for map{"tag": tag, "sources": stats} — keys in map order,
// trailing newline included:
//
//	{"sources":[{"source":"…","agree":…,"total":…,"observations":…},…],"tag":"…"}
//
// The Append functions write those exact bytes without reflection. The
// Cut functions read back only records encoding/json decodes to the
// same values — canonical key order, no whitespace inside, strings as
// CutClaim accepts them, numbers by the RFC 8259 grammar and then
// strconv, as encoding/json parses them — and leave everything else to
// encoding/json, which the Decode functions fall back to.
package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// AppendEpochRequest appends json.Marshal(req) to b. It fails, as
// json.Marshal does, on an accuracy that is NaN or infinite.
func AppendEpochRequest(b []byte, req EpochRequest) ([]byte, error) {
	b = append(b, `{"tag":`...)
	b = AppendJSONString(b, req.Tag)
	if len(req.Accuracies) > 0 {
		b = append(b, `,"accuracies":[`...)
		for i, a := range req.Accuracies {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"source":`...)
			b = AppendJSONString(b, a.Source)
			b = append(b, `,"accuracy":`...)
			var err error
			if b, err = appendFloat(b, a.Accuracy); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if req.Rescore {
		b = append(b, `,"rescore":true`...)
	}
	return append(b, '}'), nil
}

// AppendEpochReply appends the drain or mass reply json.Encoder writes
// for map[string]any{"tag": tag, "sources": stats}, newline included.
// It fails, as the encoder does, on a NaN or infinite statistic.
func AppendEpochReply(b []byte, tag string, stats []SourceStat) ([]byte, error) {
	b = append(b, `{"sources":`...)
	if stats == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, st := range stats {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"source":`...)
			b = AppendJSONString(b, st.Source)
			b = append(b, `,"agree":`...)
			var err error
			if b, err = appendFloat(b, st.Agree); err != nil {
				return b, err
			}
			b = append(b, `,"total":`...)
			if b, err = appendFloat(b, st.Total); err != nil {
				return b, err
			}
			if st.Observations != 0 {
				b = append(b, `,"observations":`...)
				b = strconv.AppendInt(b, st.Observations, 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"tag":`...)
	b = AppendJSONString(b, tag)
	return append(b, "}\n"...), nil
}

// CutEpochRequest parses a canonical request body: the bytes
// AppendEpochRequest writes, with JSON whitespace around them. ok is
// false, and the body is left for encoding/json, for anything else.
func CutEpochRequest(b []byte) (req EpochRequest, ok bool) {
	b = trimSpace(b)
	if req.Tag, b, ok = cutString(b, `{"tag":"`); !ok {
		return EpochRequest{}, false
	}
	if rest, found := bytes.CutPrefix(b, []byte(`,"accuracies":[`)); found {
		b = rest
		for {
			var a SourceAccuracy
			if a.Source, b, ok = cutString(b, `{"source":"`); !ok {
				return EpochRequest{}, false
			}
			if a.Accuracy, b, ok = cutFloat(b, `,"accuracy":`); !ok || len(b) == 0 || b[0] != '}' {
				return EpochRequest{}, false
			}
			req.Accuracies = append(req.Accuracies, a)
			b = b[1:]
			if len(b) > 0 && b[0] == ',' {
				b = b[1:]
				continue
			}
			if len(b) == 0 || b[0] != ']' {
				return EpochRequest{}, false
			}
			b = b[1:]
			break
		}
	}
	b, req.Rescore = bytes.CutPrefix(b, []byte(`,"rescore":true`))
	if len(b) == 0 || b[0] != '}' || len(trimSpace(b[1:])) != 0 {
		return EpochRequest{}, false
	}
	return req, true
}

// DecodeEpochRequest reads a request body through CutEpochRequest,
// falling back to encoding/json for any other record; its result and
// error are json.Unmarshal's.
func DecodeEpochRequest(b []byte) (EpochRequest, error) {
	if req, ok := CutEpochRequest(b); ok {
		return req, nil
	}
	var req EpochRequest
	err := json.Unmarshal(b, &req)
	return req, err
}

// StatRow is one row of a drain or mass reply whose source name still
// aliases the reply bytes, so a reader can look it up without a copy.
type StatRow struct {
	Source       []byte
	Agree        float64
	Total        float64
	Observations int64
}

// CutEpochReply parses a canonical drain or mass reply — the bytes
// AppendEpochReply writes for non-nil stats, with JSON whitespace
// around them — appending its rows to dst. ok is false, and the reply
// is left for encoding/json, for anything else; the rows are then
// unspecified.
func CutEpochReply(b []byte, dst []StatRow) (rows []StatRow, tag string, ok bool) {
	b = trimSpace(b)
	b, ok = bytes.CutPrefix(b, []byte(`{"sources":[`))
	if !ok {
		return dst, "", false
	}
	if len(b) > 0 && b[0] == ']' {
		b = b[1:]
	} else {
		for {
			var st StatRow
			if st.Source, b, ok = cutBytes(b, `{"source":"`); !ok {
				return dst, "", false
			}
			if st.Agree, b, ok = cutFloat(b, `,"agree":`); !ok {
				return dst, "", false
			}
			if st.Total, b, ok = cutFloat(b, `,"total":`); !ok {
				return dst, "", false
			}
			if bytes.HasPrefix(b, []byte(`,"observations":`)) {
				if st.Observations, b, ok = cutInt(b, `,"observations":`); !ok {
					return dst, "", false
				}
			}
			if len(b) == 0 || b[0] != '}' {
				return dst, "", false
			}
			dst = append(dst, st)
			b = b[1:]
			if len(b) > 0 && b[0] == ',' {
				b = b[1:]
				continue
			}
			if len(b) == 0 || b[0] != ']' {
				return dst, "", false
			}
			b = b[1:]
			break
		}
	}
	if tag, b, ok = cutString(b, `,"tag":"`); !ok || len(b) == 0 || b[0] != '}' ||
		len(trimSpace(b[1:])) != 0 {
		return dst, "", false
	}
	return dst, tag, true
}

// DecodeEpochReply appends a drain or mass reply's rows to dst, through
// CutEpochReply or, for any other record, encoding/json.
func DecodeEpochReply(b []byte, dst []StatRow) ([]StatRow, error) {
	n := len(dst)
	if rows, _, ok := CutEpochReply(b, dst); ok {
		return rows, nil
	}
	var reply struct {
		Sources []SourceStat `json:"sources"`
	}
	if err := json.Unmarshal(b, &reply); err != nil {
		return dst[:n], err
	}
	dst = dst[:n]
	for _, st := range reply.Sources {
		dst = append(dst, StatRow{Source: []byte(st.Source), Agree: st.Agree, Total: st.Total, Observations: st.Observations})
	}
	return dst, nil
}

// appendFloat writes f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with
// a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("stream: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// cutFloat consumes prefix and one JSON number, parsed by
// strconv.ParseFloat exactly as encoding/json parses a float64 field.
// A number ParseFloat refuses (out of range) is not ok.
func cutFloat(b []byte, prefix string) (float64, []byte, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(prefix))
	if !ok {
		return 0, nil, false
	}
	n, rest := cutNumber(rest)
	if n == nil {
		return 0, nil, false
	}
	f, err := strconv.ParseFloat(string(n), 64)
	if err != nil {
		return 0, nil, false
	}
	return f, rest, true
}

// cutNumber splits off the RFC 8259 number at the start of b:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. num is nil when b
// does not start with one.
func cutNumber(b []byte) (num, rest []byte) {
	i, ok := integerEnd(b)
	if !ok {
		return nil, b
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return nil, b
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return nil, b
		}
		i = j
	}
	return b[:i], b[i:]
}

// cutInt consumes prefix and one JSON integer, -?(0|[1-9][0-9]*),
// parsed by strconv.ParseInt as encoding/json parses an int64 field. A
// number out of int64 range is not ok; a fraction or exponent after
// the integer (which encoding/json refuses for an int64) is left in
// rest, where the caller's next match fails on it.
func cutInt(b []byte, prefix string) (int64, []byte, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(prefix))
	if !ok {
		return 0, nil, false
	}
	i, ok := integerEnd(rest)
	if !ok {
		return 0, nil, false
	}
	v, err := strconv.ParseInt(string(rest[:i]), 10, 64)
	if err != nil {
		return 0, nil, false
	}
	return v, rest[i:], true
}

// integerEnd returns the end of the -?(0|[1-9][0-9]*) at the start of
// b.
func integerEnd(b []byte) (int, bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		return i + 1, true
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		return digitsEnd(b, i+1), true
	}
	return 0, false
}

// digitsEnd returns the index of the first non-digit at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}
