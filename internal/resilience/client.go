package resilience

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// SeqHeader is the idempotency key header the retrying client stamps
// on every ingest body and the server's dedup window keys on: a
// retried request carrying the same key ingests exactly once even
// when the first attempt's response was lost.
const SeqHeader = "X-Batch-Seq"

// ClientConfig tunes the retrying ingest client.
type ClientConfig struct {
	// MaxAttempts bounds tries per request, first attempt included
	// (default 5).
	MaxAttempts int
	// RetryBudget bounds total retries across the client's lifetime, so
	// a long replay against a dying server fails fast instead of
	// multiplying every request by MaxAttempts (0 = unbounded).
	RetryBudget int64
	// PerTryTimeout bounds each attempt (0 = no per-attempt deadline;
	// the caller's context still applies).
	PerTryTimeout time.Duration
	// Backoff is the delay schedule template; its Base/Max/Mult/Jitter
	// fields are used, the RNG is per-client from Seed.
	Backoff Backoff
	// Seed fixes the jitter stream (0 = 1), keeping retry schedules
	// reproducible.
	Seed int64
}

// Client is an at-least-once HTTP ingest client made effectively
// exactly-once by idempotency keys: it retries transient failures
// (network errors, 408/429/5xx) with capped exponential backoff,
// honors Retry-After on shed responses, and stamps every request with
// the caller's sequence key so server-side dedup can collapse the
// retries. It is the ingest half the cluster router will fan out
// through; `slimfast replay` wires it to a claim file today.
type Client struct {
	hc      *http.Client
	cfg     ClientConfig
	retries atomic.Int64
}

// NewClient wraps hc (nil selects http.DefaultClient) with the retry
// policy in cfg.
func NewClient(hc *http.Client, cfg ClientConfig) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Client{hc: hc, cfg: cfg}
}

// Retries reports how many retries (attempts beyond each first) the
// client has spent so far.
func (c *Client) Retries() int64 { return c.retries.Load() }

// retryable reports whether an HTTP status is worth retrying: shed
// (429), timeout (408), and server-side failures. With an idempotency
// key even a 500 whose side effects landed is safe to retry.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusRequestTimeout ||
		status >= 500
}

// retryAfter parses a Retry-After header as delta-seconds (the form
// the slimfast server emits); absent or unparseable yields 0.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec >= 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}

// Post sends body to url with the given content type and idempotency
// sequence key, retrying per the client's policy. On success (any
// non-retryable status, 2xx included) the response is returned with
// its body intact for the caller to consume. Once attempts or the
// retry budget run out, the last failure is returned as an error.
func (c *Client) Post(ctx context.Context, url, contentType, seq string, body []byte) (*http.Response, error) {
	return c.do(ctx, http.MethodPost, url, contentType, seq, body)
}

// Get fetches url under the same retry policy as Post. GETs are
// naturally idempotent, so no sequence key is stamped; the router
// leans on this for scatter-gather reads against cluster members.
func (c *Client) Get(ctx context.Context, url string) (*http.Response, error) {
	return c.do(ctx, http.MethodGet, url, "", "", nil)
}

// do runs the shared retry loop around attempt.
func (c *Client) do(ctx context.Context, method, url, contentType, seq string, body []byte) (*http.Response, error) {
	bo := Backoff{
		Base:   c.cfg.Backoff.Base,
		Max:    c.cfg.Backoff.Max,
		Mult:   c.cfg.Backoff.Mult,
		Jitter: c.cfg.Backoff.Jitter,
		seeded: true,
		seed:   c.cfg.Seed,
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if c.cfg.RetryBudget > 0 && c.retries.Add(1) > c.cfg.RetryBudget {
				c.retries.Add(-1)
				return nil, fmt.Errorf("resilience: retry budget exhausted: %w", lastErr)
			}
			if c.cfg.RetryBudget <= 0 {
				c.retries.Add(1)
			}
		}
		resp, err := c.attempt(ctx, method, url, contentType, seq, body)
		var ra time.Duration
		switch {
		case err != nil:
			lastErr = err
		case !retryable(resp.StatusCode):
			return resp, nil
		default:
			// Drain so the transport can reuse the connection, and note
			// the server's pacing if it gave one.
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("resilience: %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
			ra = retryAfter(resp)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt < c.cfg.MaxAttempts-1 {
			// A Retry-After from the server overrides the local schedule
			// (which still advances, so later delays keep growing).
			d := bo.Next()
			if ra > 0 {
				d = ra
			}
			if !sleep(ctx, d) {
				return nil, ctx.Err()
			}
		}
	}
	return nil, fmt.Errorf("resilience: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// attempt runs one try. When a per-try deadline is configured, the
// attempt context is released only once the response body is closed —
// canceling earlier would kill the body read the caller still owns.
func (c *Client) attempt(ctx context.Context, method, url, contentType, seq string, body []byte) (*http.Response, error) {
	cancel := context.CancelFunc(func() {})
	if c.cfg.PerTryTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.cfg.PerTryTimeout)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if seq != "" {
		req.Header.Set(SeqHeader, seq)
	}
	if id := RequestID(ctx); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelOnClose ties a context's release to the response body's
// lifetime.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// sleep waits d or until ctx is done; it reports whether the full
// delay elapsed. It is a variable so tests can record the schedule.
var sleep = func(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
