package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// client is the closed-loop load generator's one keep-alive
// connection per server: it sends the next request only after the
// previous response body has been read.
type client struct {
	hc    *http.Client
	dials atomic.Int64 // connections opened; must stay 1 per server
	trace *httptrace.ClientTrace
}

func newClient() *client {
	c := &client{hc: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     5 * time.Minute,
		},
	}}
	c.trace = &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) {
		if !ci.Reused {
			c.dials.Add(1)
		}
	}}
	return c
}

// do sends one request and returns the status, the body and the time
// from send to the last body byte.
func (c *client) do(method, url, contentType, seq string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), c.trace), method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if seq != "" {
		req.Header.Set("X-Batch-Seq", seq)
	}
	began := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(began), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(began), err
}

// get fetches url and fails on any status but 200.
func (c *client) get(url string) ([]byte, error) {
	code, b, _, err := c.do(http.MethodGet, url, "", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, code, b)
	}
	return b, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// exportDigest digests an estimates CSV with its header first and its
// rows sorted. The plain GET /v1/estimates streams rows shard by shard
// while query.Write emits them in object order; the rows themselves
// must match byte for byte.
func exportDigest(csv []byte) string {
	lines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	if len(lines) > 1 {
		sort.Strings(lines[1:])
	}
	return digest([]byte(strings.Join(lines, "\n")))
}

// promCounters parses the samples of a Prometheus text exposition into
// name{labels} → value.
func promCounters(text []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sumFamily sums every sample of one metric family (all label sets).
func sumFamily(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
