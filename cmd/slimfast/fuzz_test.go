package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
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

// epochRoutes are the member control-plane endpoints FuzzEpochRequest
// posts to, indexed by the target's op byte.
var epochRoutes = []string{"/v1/epoch/drain", "/v1/epoch/mass", "/v1/epoch/apply"}

// epochMember builds an -external-epochs node engine holding settled
// evidence, so drain, mass and a rescoring apply all have state to move.
func epochMember(t testing.TB) *stream.Engine {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 2
	opts.EpochLength = stream.ExternalEpochLength
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.ObserveBatch(goldenClaims()[:80])
	return eng
}

// checkpointBytes fingerprints the whole engine state: cumulative and
// pending evidence, σ-table, epoch and every live object.
func checkpointBytes(t testing.TB, eng *stream.Engine) []byte {
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// routerEpochExchanges drives a one-member router through an epoch
// barrier and a one-sweep refine, recording every body it posts to the
// member's /v1/epoch routes.
func routerEpochExchanges(f *testing.F) (ops []uint8, bodies [][]byte) {
	h := testServer(epochMember(f), "", 32).handler()
	var mu sync.Mutex
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if op := slices.Index(epochRoutes, r.URL.Path); op >= 0 {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			mu.Lock()
			ops, bodies = append(ops, uint8(op)), append(bodies, body)
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer member.Close()
	rh := newGoldenClusterOver(f, []string{member.URL}, 32, 64, 1).handler()
	for _, path := range []string{"/v1/observe?seq=fuzz", "/v1/refine?sweeps=1"} {
		body := ""
		if strings.HasPrefix(path, "/v1/observe") {
			body = ndjsonFromTriples(goldenClaims()[:80])
		}
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		rh.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			f.Fatalf("router %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return ops, bodies
}

// FuzzEpochRequest throws arbitrary bodies at the /v1/epoch control
// plane of an -external-epochs node: no body may panic the node or
// answer 5xx, and a rejected body must leave the engine untouched.
// Seeds are the router's own barrier, mass and apply exchanges.
func FuzzEpochRequest(f *testing.F) {
	ops, bodies := routerEpochExchanges(f)
	for i := range ops {
		f.Add(ops[i], bodies[i])
	}
	for _, body := range []string{
		"", "null", "[]", "{", `{"tag":5}`, `{"tag":"x"} trailing`,
		`{"tag":"x","accuracies":[{"source":"","accuracy":0.5}]}`,
		`{"tag":"x","accuracies":[{"source":"s0","accuracy":1}],"rescore":true}`,
		`{"tag":"x","accuracies":[{"source":"s0","accuracy":0.9},{"source":"new","accuracy":-1}]}`,
		`{"accuracies":[{"source":"s0","accuracy":"0.9"}]}`,
	} {
		f.Add(uint8(2), []byte(body))
	}
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		eng := epochMember(t)
		h := testServer(eng, "", 32).handler()
		before := checkpointBytes(t, eng)
		path := epochRoutes[int(op)%len(epochRoutes)]
		rec := doReq(t, h, "POST", path, "application/json", string(body))
		switch {
		case rec.Code >= 500:
			t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
		case rec.Code != http.StatusOK && !bytes.Equal(before, checkpointBytes(t, eng)):
			t.Fatalf("%s rejected the body (%d: %s) but changed the engine", path, rec.Code, rec.Body)
		}
	})
}
