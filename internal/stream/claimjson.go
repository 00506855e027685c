// The canonical claim record: the NDJSON line
// {"source":"…","object":"…","value":"…"} that encoding/json writes for
// a Triple, and that the router sends its members and most clients
// send a node. AppendClaim writes it and CutClaim reads it without
// reflection; CutClaim touches only plain strings and leaves every
// other record to encoding/json — so it yields exactly the triples
// encoding/json would.
package stream

import "unicode/utf8"

// AppendClaim appends the line json.Encoder writes for tr, newline
// included.
func AppendClaim(b []byte, tr Triple) []byte {
	b = append(b, `{"source":`...)
	b = AppendJSONString(b, tr.Source)
	b = append(b, `,"object":`...)
	b = AppendJSONString(b, tr.Object)
	b = append(b, `,"value":`...)
	b = AppendJSONString(b, tr.Value)
	return append(b, "}\n"...)
}

// CutClaim parses the canonical record at the start of b, after any
// JSON whitespace, and returns it with the rest of b past the
// whitespace that follows it. ok is false, and b is left for
// encoding/json, unless b holds exactly {"source":"…","object":"…",
// "value":"…"} with no whitespace inside and three strings of
// printable ASCII (0x20–0x7E) without a backslash: the strings
// encoding/json decodes to themselves.
func CutClaim(b []byte) (tr Triple, rest []byte, ok bool) {
	b = trimSpace(b)
	if tr.Source, b, ok = cutString(b, `{"source":"`); !ok {
		return Triple{}, nil, false
	}
	if tr.Object, b, ok = cutString(b, `,"object":"`); !ok {
		return Triple{}, nil, false
	}
	if tr.Value, b, ok = cutString(b, `,"value":"`); !ok || len(b) == 0 || b[0] != '}' {
		return Triple{}, nil, false
	}
	return tr, trimSpace(b[1:]), true
}

// cutString consumes prefix (which ends in the opening quote) and a
// plain string up to its closing quote.
func cutString(b []byte, prefix string) (string, []byte, bool) {
	s, rest, ok := cutBytes(b, prefix)
	return string(s), rest, ok
}

// cutBytes is cutString returning the string's bytes in place.
func cutBytes(b []byte, prefix string) ([]byte, []byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, nil, false
	}
	b = b[len(prefix):]
	for i, c := range b {
		if c == '"' {
			return b[:i], b[i+1:], true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// AppendJSONString appends s as encoding/json writes a string with HTML
// escaping on: quotes, backslashes, control bytes, <, > and & escaped,
// invalid UTF-8 replaced by \ufffd, and U+2028/U+2029 escaped.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// trimSpace drops JSON's insignificant whitespace from the front of b.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	return b
}
