package resilience

import (
	"math/rand"
	"time"
)

// Backoff produces capped exponential delays with deterministic
// seeded jitter: delay k is Base·Mult^k, clamped to Max, then
// stretched by a jitter factor in [1-Jitter, 1+Jitter]. The seeded
// RNG keeps retry schedules reproducible in tests while still
// decorrelating real clients that pass distinct seeds.
type Backoff struct {
	Base   time.Duration // first delay (default 100ms)
	Max    time.Duration // ceiling per delay (default 10s)
	Mult   float64       // growth factor (default 2)
	Jitter float64       // relative jitter in [0,1) (default 0.2)

	attempt int
	// The jitter stream: seeded from seed at the first jittered Next,
	// so a schedule that is never read (a request that succeeds first
	// time) never pays for seeding. A zero Backoff has no stream.
	seeded bool
	seed   int64
	rng    *rand.Rand
}

// NewBackoff returns a Backoff with the default schedule and a
// jitter stream seeded by seed.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{seeded: true, seed: seed}
}

// Next returns the delay before the upcoming retry and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	base, maxd, mult, jit := b.Base, b.Max, b.Mult, b.Jitter
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if maxd <= 0 {
		maxd = 10 * time.Second
	}
	if mult < 1 {
		mult = 2
	}
	if jit < 0 || jit >= 1 {
		jit = 0.2
	}
	d := float64(base)
	for i := 0; i < b.attempt; i++ {
		d *= mult
		if d >= float64(maxd) {
			d = float64(maxd)
			break
		}
	}
	b.attempt++
	if b.seeded && jit > 0 {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(b.seed))
		}
		d *= 1 - jit + 2*jit*b.rng.Float64()
	}
	if d > float64(maxd) {
		d = float64(maxd)
	}
	return time.Duration(d)
}

// Reset rewinds the schedule to the first delay (the jitter stream
// keeps advancing, so reset-after-success does not replay delays).
func (b *Backoff) Reset() { b.attempt = 0 }
