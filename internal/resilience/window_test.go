package resilience

import (
	"slices"
	"testing"
)

// TestWindow replays mark sequences against a three-key window and
// checks each Mark result, then membership and the oldest-first
// snapshot at the end.
func TestWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		marks  []string
		fresh  []bool // Mark's result per key
		absent []string
		keys   []string // Keys() at the end
	}{
		{
			name:  "empty",
			keys:  nil,
			fresh: nil,
		},
		{
			name:  "partial",
			marks: []string{"a", "b"},
			fresh: []bool{true, true},
			keys:  []string{"a", "b"},
		},
		{
			name:   "evicts oldest",
			marks:  []string{"a", "b", "c", "d"},
			fresh:  []bool{true, true, true, true},
			absent: []string{"a"},
			keys:   []string{"b", "c", "d"},
		},
		{
			// Re-marking a key inside the window keeps its age: "a"
			// is still the oldest and goes first.
			name:   "re-mark is a no-op",
			marks:  []string{"a", "b", "a", "c", "d"},
			fresh:  []bool{true, true, false, true, true},
			absent: []string{"a"},
			keys:   []string{"b", "c", "d"},
		},
		{
			name:   "wraps twice",
			marks:  []string{"a", "b", "c", "d", "e", "f", "g", "a"},
			fresh:  []bool{true, true, true, true, true, true, true, true},
			absent: []string{"b", "c", "d", "e"},
			keys:   []string{"f", "g", "a"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(3)
			for i, k := range tc.marks {
				if got := w.Mark(k); got != tc.fresh[i] {
					t.Fatalf("Mark(%q) #%d = %v, want %v", k, i, got, tc.fresh[i])
				}
			}
			for _, k := range tc.keys {
				if !w.Seen(k) {
					t.Errorf("Seen(%q) = false inside the window", k)
				}
			}
			for _, k := range tc.absent {
				if w.Seen(k) {
					t.Errorf("Seen(%q) = true after eviction", k)
				}
			}
			if got := w.Keys(); !slices.Equal(got, tc.keys) || (got == nil) != (tc.keys == nil) {
				t.Errorf("Keys() = %#v, want %#v", got, tc.keys)
			}
			// Replaying the snapshot rebuilds the same window.
			r := NewWindow(w.Size())
			for _, k := range w.Keys() {
				r.Mark(k)
			}
			if !slices.Equal(r.Keys(), w.Keys()) {
				t.Errorf("replayed Keys() = %v, want %v", r.Keys(), w.Keys())
			}
		})
	}
}
