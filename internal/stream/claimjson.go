// The canonical claim record: the NDJSON line
// {"source":"…","object":"…","value":"…"} that encoding/json writes for
// a Triple, and that the router sends its members and most clients
// send a node. CutClaim reads it without reflection, touching only
// plain strings and leaving every other record to encoding/json — so
// it yields exactly the triples encoding/json would.
package stream

import "bytes"

// CutClaim parses the canonical record at the start of b, after any
// JSON whitespace, and returns it with the rest of b past the
// whitespace that follows it. ok is false, and b is left for
// encoding/json, unless b holds exactly {"source":"…","object":"…",
// "value":"…"} with no whitespace inside and three strings of
// printable ASCII (0x20–0x7E) without a backslash: the strings
// encoding/json decodes to themselves.
func CutClaim(b []byte) (tr Triple, rest []byte, ok bool) {
	b = bytes.TrimLeft(b, jsonSpace)
	if tr.Source, b, ok = cutString(b, `{"source":"`); !ok {
		return Triple{}, nil, false
	}
	if tr.Object, b, ok = cutString(b, `,"object":"`); !ok {
		return Triple{}, nil, false
	}
	if tr.Value, b, ok = cutString(b, `,"value":"`); !ok || len(b) == 0 || b[0] != '}' {
		return Triple{}, nil, false
	}
	return tr, bytes.TrimLeft(b[1:], jsonSpace), true
}

// cutString consumes prefix (which ends in the opening quote) and a
// plain string up to its closing quote.
func cutString(b []byte, prefix string) (string, []byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return "", nil, false
	}
	b = b[len(prefix):]
	for i, c := range b {
		if c == '"' {
			return string(b[:i]), b[i+1:], true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return "", nil, false
		}
	}
	return "", nil, false
}

// jsonSpace is JSON's insignificant whitespace.
const jsonSpace = " \t\r\n"
