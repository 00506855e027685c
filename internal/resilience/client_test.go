package resilience

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastCfg keeps retry delays test-sized.
func fastCfg(attempts int) ClientConfig {
	return ClientConfig{
		MaxAttempts: attempts,
		Backoff:     Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Mult: 2, Jitter: 0},
		Seed:        1,
	}
}

func TestClientRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	var seqs []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seqs = append(seqs, r.Header.Get(SeqHeader))
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		if string(body) != "payload" {
			t.Errorf("retried body = %q, want replayed payload", body)
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("done"))
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), fastCfg(5))
	resp, err := c.Post(context.Background(), srv.URL, "text/plain", "seq-1", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out, _ := io.ReadAll(resp.Body)
	if string(out) != "done" {
		t.Errorf("body = %q", out)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
	if c.Retries() != 2 {
		t.Errorf("client counted %d retries, want 2", c.Retries())
	}
	for i, s := range seqs {
		if s != "seq-1" {
			t.Errorf("attempt %d carried seq %q, want seq-1 on every retry", i, s)
		}
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var times []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		times = append(times, time.Now())
		if len(times) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), fastCfg(3))
	start := time.Now()
	resp, err := c.Post(context.Background(), srv.URL, "text/plain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(times) != 2 {
		t.Fatalf("server saw %d calls, want 2", len(times))
	}
	if gap := times[1].Sub(start); gap < 900*time.Millisecond {
		t.Errorf("retry landed after %v, want >= ~1s per Retry-After", gap)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), fastCfg(5))
	resp, err := c.Post(context.Background(), srv.URL, "text/plain", "", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 passed through", resp.StatusCode)
	}
	if calls.Load() != 1 {
		t.Errorf("400 was retried %d times", calls.Load()-1)
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "still broken", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := NewClient(srv.Client(), fastCfg(3))
	_, err := c.Post(context.Background(), srv.URL, "text/plain", "", nil)
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if !strings.Contains(err.Error(), "still broken") {
		t.Errorf("err %v does not carry the server's message", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
}

func TestClientRetryBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	cfg := fastCfg(10)
	cfg.RetryBudget = 3
	c := NewClient(srv.Client(), cfg)
	_, err := c.Post(context.Background(), srv.URL, "text/plain", "", nil)
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("first request err = %v, want budget exhaustion", err)
	}
	// The budget is client-wide: a second request has nothing left and
	// must fail on its first retryable response.
	_, err = c.Post(context.Background(), srv.URL, "text/plain", "", nil)
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("second request err = %v, want immediate budget exhaustion", err)
	}
	if got := c.Retries(); got != 3 {
		t.Errorf("retries spent = %d, want exactly the budget of 3", got)
	}
}

func TestClientContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := NewClient(srv.Client(), fastCfg(5))
	start := time.Now()
	_, err := c.Post(ctx, srv.URL, "text/plain", "", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancel did not interrupt the Retry-After sleep")
	}
}

func TestClientNetworkErrorRetries(t *testing.T) {
	// A server that dies after the first response: the second POST hits
	// a connection error and must be retried against... nothing, so the
	// client gives up with the transport error preserved.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()

	c := NewClient(&http.Client{}, fastCfg(2))
	_, err := c.Post(context.Background(), url, "text/plain", "", nil)
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("err = %v, want transport failure after retries", err)
	}
}

func TestClientPerTryTimeout(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // first attempt hangs past the per-try deadline
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	defer close(release)

	cfg := fastCfg(3)
	cfg.PerTryTimeout = 100 * time.Millisecond
	c := NewClient(srv.Client(), cfg)
	resp, err := c.Post(context.Background(), srv.URL, "text/plain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The successful response's body must still be readable: the
	// per-try context is released on body close, not before.
	out, err := io.ReadAll(resp.Body)
	if err != nil || string(out) != "ok" {
		t.Fatalf("body = %q err = %v after per-try timeout retry", out, err)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want hung first + ok second", calls.Load())
	}
}

// TestClientRetryDelaysMatchNewBackoff: the jitter stream a retried
// request draws is seeded lazily, at its first retry, yet the delays it
// sleeps are NewBackoff(Seed)'s schedule bit for bit; a request that
// succeeds first time sleeps nothing.
func TestClientRetryDelaysMatchNewBackoff(t *testing.T) {
	var slept []time.Duration
	orig := sleep
	sleep = func(ctx context.Context, d time.Duration) bool {
		slept = append(slept, d)
		return true
	}
	t.Cleanup(func() { sleep = orig })
	var fail atomic.Bool
	fail.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()

	tmpl := Backoff{Base: 3 * time.Millisecond, Max: time.Second, Mult: 1.7, Jitter: 0.35}
	const seed, attempts = 42, 6
	schedule := func() *Backoff {
		b := NewBackoff(seed)
		b.Base, b.Max, b.Mult, b.Jitter = tmpl.Base, tmpl.Max, tmpl.Mult, tmpl.Jitter
		return b
	}
	c := NewClient(srv.Client(), ClientConfig{MaxAttempts: attempts, Backoff: tmpl, Seed: seed})
	if _, err := c.Post(context.Background(), srv.URL, "text/plain", "k", []byte("x")); err == nil {
		t.Fatal("want an error once every attempt failed")
	}
	want := schedule()
	if len(slept) != attempts-1 {
		t.Fatalf("slept %d times, want %d", len(slept), attempts-1)
	}
	for i, d := range slept {
		if w := want.Next(); d != w {
			t.Fatalf("delay %d = %v, NewBackoff(%d) gives %v", i, d, seed, w)
		}
	}

	// A second request starts the schedule afresh, from the same seed.
	slept = nil
	if _, err := c.Post(context.Background(), srv.URL, "text/plain", "k", []byte("x")); err == nil {
		t.Fatal("want an error once every attempt failed")
	}
	if w := schedule().Next(); len(slept) == 0 || slept[0] != w {
		t.Fatalf("second request's first delay = %v, want %v", slept, w)
	}

	fail.Store(false)
	slept = nil
	resp, err := c.Post(context.Background(), srv.URL, "text/plain", "k", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(slept) != 0 {
		t.Fatalf("a first-try success slept %v", slept)
	}
}
