package resilience

// Window is the bounded dedup window behind idempotent ingest: a ring
// of the most recent keys plus their membership set. Once full, each
// new key forgets the oldest one. A node guards its batch sequence keys
// with one, the router its per-chunk keys; both persist Keys and
// replay them through Mark on restore, which rebuilds the same
// eviction order. A Window is not safe for concurrent use.
type Window struct {
	keys []string
	head int // oldest key once the ring is full
	size int
	set  map[string]struct{}
}

// NewWindow returns an empty window holding at most size keys; size
// must be positive.
func NewWindow(size int) *Window {
	if size < 1 {
		panic("resilience: window size must be positive")
	}
	return &Window{size: size, set: make(map[string]struct{})}
}

// Size returns the most keys the window holds.
func (w *Window) Size() int { return w.size }

// Seen reports whether key is inside the window.
func (w *Window) Seen(key string) bool {
	_, ok := w.set[key]
	return ok
}

// Mark records key and reports whether it was new. Re-marking a key
// already inside the window changes nothing, its age included.
func (w *Window) Mark(key string) bool {
	if _, ok := w.set[key]; ok {
		return false
	}
	if len(w.keys) < w.size {
		w.keys = append(w.keys, key)
	} else {
		delete(w.set, w.keys[w.head])
		w.keys[w.head] = key
		w.head = (w.head + 1) % w.size
	}
	w.set[key] = struct{}{}
	return true
}

// Keys copies the window oldest-first, the order Mark must replay to
// rebuild it; nil when the window is empty.
func (w *Window) Keys() []string {
	if len(w.keys) == 0 {
		return nil
	}
	out := make([]string, 0, len(w.keys))
	out = append(out, w.keys[w.head:]...)
	return append(out, w.keys[:w.head]...)
}
