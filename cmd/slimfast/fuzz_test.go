package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"slimfast/internal/stream"
)

// fuzzServer builds a tiny engine + handler per execution. The
// handler chain includes the panic-recovery middleware, so a 500
// response is the signature of a parser panic — exactly what the
// fuzz targets assert never happens.
func fuzzServer(t *testing.T) http.Handler {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = 16
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return newStreamServer(eng, serveConfig{Batch: 4}, io.Discard).handler()
}

// observeFuzzBody posts one body and checks the /observe invariants:
// the parser never panics (no 500 — the recovery middleware would
// turn one into exactly that) and every outcome is a deliberate
// status.
func observeFuzzBody(t *testing.T, contentType string, body []byte) {
	h := fuzzServer(t)
	req := httptest.NewRequest("POST", "/v1/observe", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	case http.StatusInternalServerError:
		t.Fatalf("parser panicked (500): %s", rec.Body)
	default:
		t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body)
	}
}

// FuzzObserveNDJSON throws arbitrary bytes at the NDJSON ingest path.
func FuzzObserveNDJSON(f *testing.F) {
	f.Add([]byte(`{"source":"s","object":"o","value":"v"}` + "\n"))
	f.Add([]byte(`{"source":"s","object":"o","value":"v"}{"source":"t","object":"o","value":"w"}`))
	f.Add([]byte("{broken"))
	f.Add([]byte(`{"source":"","object":"o","value":"v"}`))
	f.Add([]byte("null\ntrue\n[1,2]"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		observeFuzzBody(t, "application/x-ndjson", body)
	})
}

// FuzzObserveCSV throws arbitrary bytes at the CSV ingest path.
func FuzzObserveCSV(f *testing.F) {
	f.Add([]byte("source,object,value\ns,o,v\n"))
	f.Add([]byte("s,o,v\nt,o,w\n"))
	f.Add([]byte(`"unterminated,quote`))
	f.Add([]byte("a,b\n"))
	f.Add([]byte("a,b,c,d\n"))
	f.Add([]byte{0xef, 0xbb, 0xbf, 's', ',', 'o', ',', 'v'})
	f.Fuzz(func(t *testing.T, body []byte) {
		observeFuzzBody(t, "text/csv", body)
	})
}

// parseClaimBodyJSON is the NDJSON decoder before the canonical fast
// path — encoding/json alone — kept as the oracle parseClaimBody is
// held to.
func parseClaimBodyJSON(body []byte, add func(stream.Triple) error) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	row := 0
	for {
		var ob stream.Triple
		if derr := dec.Decode(&ob); derr == io.EOF {
			return nil
		} else if derr != nil {
			return fmt.Errorf("ndjson row %d: %w", row+1, derr)
		}
		row++
		if ob.Source == "" || ob.Object == "" || ob.Value == "" {
			return fmt.Errorf("ndjson row %d: %w", row, errEmptyClaimField)
		}
		if aerr := add(ob); aerr != nil {
			return fmt.Errorf("ndjson row %d: %w", row, aerr)
		}
	}
}

// FuzzClaimBodyDecode is the differential check on the NDJSON decoder:
// parseClaimBody and the pure encoding/json oracle must deliver the
// same triples in the same order and fail with the same error text.
// failAt > 0 makes the add callback refuse that claim, so the
// mid-body error path is compared too.
func FuzzClaimBodyDecode(f *testing.F) {
	for _, body := range []string{
		`{"source":"s","object":"o","value":"v"}` + "\n" + `{"source":"t","object":"o","value":"w"}` + "\n",
		`{"object":"o","value":"v","source":"s"}`,
		`{"Source":"s","OBJECT":"o","value":"v"}`,
		`{"source":"s","object":"o","value":"v","source":"t"}`,
		`{"source":"s\"q","object":"o\u00e9\n","value":"v\/<&>"}`,
		`{"source":"s\u0000","object":"o","value":"v"}`,
		"{\"source\":\"s\xff\xfe\",\"object\":\"o\",\"value\":\"v\"}",
		`{"source":"s","object":"o","value":"v"}{"source":"t","object":"o","value":"v"}`,
		`{"source":null,"object":"o","value":"v"}`,
		`{"source":"s","object":"o","value":"v"}garbage`,
		`{"source":"s","object":"o","value":"v"} {"source":"t","object":"o","val`,
		`{"source":"s","object":"o","value":"v"}` + "\r\n" + `{"source":"t","object":"o","value":"v"}` + "\r\n",
		`{"source":"","object":"o","value":"v"}`,
		` {"source": "s", "object": "o", "value": "v"} `,
		"",
	} {
		f.Add([]byte(body), uint8(0))
	}
	f.Add([]byte(`{"source":"s","object":"o","value":"v"}`+"\n"+`{"source":"t","object":"o","value":"w"}`), uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, failAt uint8) {
		run := func(parse func(add func(stream.Triple) error) error) ([]stream.Triple, string) {
			var got []stream.Triple
			err := parse(func(tr stream.Triple) error {
				if len(got)+1 == int(failAt) {
					return fmt.Errorf("refused claim %d", failAt)
				}
				got = append(got, tr)
				return nil
			})
			msg := "<nil>"
			if err != nil {
				msg = err.Error()
			}
			return got, msg
		}
		got, gotErr := run(func(add func(stream.Triple) error) error {
			return parseClaimBody(body, "application/x-ndjson", add)
		})
		want, wantErr := run(func(add func(stream.Triple) error) error {
			return parseClaimBodyJSON(body, add)
		})
		if gotErr != wantErr {
			t.Fatalf("error %q, encoding/json gives %q", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("triples %q, encoding/json gives %q", got, want)
		}
	})
}
