package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestCutClaimCanonical reads back what json.Encoder writes for plain
// triples — the router's member bodies — with whitespace around the
// records skipped.
func TestCutClaimCanonical(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(" \r\n")
	enc := json.NewEncoder(&body)
	var want []Triple
	for i := 0; i < 5; i++ {
		tr := Triple{Source: fmt.Sprintf("s%d", i), Object: "o {~} :", Value: ""}
		want = append(want, tr)
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
		body.WriteString("\t \r\n"[:i%4])
	}
	b := body.Bytes()
	for i, w := range want {
		tr, rest, ok := CutClaim(b)
		if !ok || tr != w {
			t.Fatalf("record %d: CutClaim = %q, %v; want %q", i, tr, ok, w)
		}
		b = rest
	}
	if len(b) != 0 {
		t.Errorf("rest = %q, want empty", b)
	}
}

// TestCutClaimDeclines lists records CutClaim must leave to
// encoding/json, each of which it could only misread.
func TestCutClaimDeclines(t *testing.T) {
	for _, in := range []string{
		``, ` `, `null`, `{}`,
		`{"source":"s","object":"o","value":"v"`,
		`{"source":"s","object":"o","value":"v}`,
		`{"source": "s","object":"o","value":"v"}`,
		`{"object":"o","source":"s","value":"v"}`,
		`{"Source":"s","object":"o","value":"v"}`,
		`{"source":"s","object":"o","value":"v","value":"w"}`,
		`{"source":"s\"","object":"o","value":"v"}`,
		`{"source":"s\u0041","object":"o","value":"v"}`,
		`{"source":null,"object":"o","value":"v"}`,
		`{"source":"s","object":"o","value":1}`,
		"{\"source\":\"s\x7f\",\"object\":\"o\",\"value\":\"v\"}",
		"{\"source\":\"s\tx\",\"object\":\"o\",\"value\":\"v\"}",
		"{\"source\":\"é\",\"object\":\"o\",\"value\":\"v\"}",
		"{\"source\":\"\xff\",\"object\":\"o\",\"value\":\"v\"}",
	} {
		if tr, _, ok := CutClaim([]byte(in)); ok {
			t.Errorf("CutClaim(%q) accepted %q", in, tr)
		}
	}
}
