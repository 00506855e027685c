package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d, want GOMAXPROCS", got)
	}
	for _, n := range []int{1, 2, 7} {
		if got := Resolve(n); got != n {
			t.Errorf("Resolve(%d) = %d", n, got)
		}
	}
}

func TestSplitCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {5, 2}, {10, 3}, {10, 10}, {10, 50}, {100, 7}, {64, 1}, {3, 0},
	} {
		chunks := split(tc.n, tc.parts)
		covered := 0
		prev := 0
		for _, ch := range chunks {
			if ch.Lo != prev {
				t.Fatalf("split(%d,%d): gap at %d (chunks %v)", tc.n, tc.parts, ch.Lo, chunks)
			}
			if ch.Hi <= ch.Lo {
				t.Fatalf("split(%d,%d): empty chunk %v", tc.n, tc.parts, ch)
			}
			covered += ch.Hi - ch.Lo
			prev = ch.Hi
		}
		if covered != tc.n {
			t.Fatalf("split(%d,%d) covers %d indices", tc.n, tc.parts, covered)
		}
		if tc.parts > 0 && len(chunks) > tc.parts {
			t.Fatalf("split(%d,%d) produced %d chunks", tc.n, tc.parts, len(chunks))
		}
	}
}

func TestScatterLayoutFansOutSmallN(t *testing.T) {
	// Coarse-grained loops (a handful of seeds or table rows) must
	// still get one chunk per worker, or the fan-out is a no-op.
	for _, tc := range []struct{ n, workers, wantChunks int }{
		{4, 4, 4},     // seed replication
		{3, 8, 3},     // fewer items than workers
		{28, 4, 4},    // quick-mode table cells
		{1000, 4, 16}, // large n falls back to ~chunkTarget width
	} {
		got := scatterLayout(tc.n, tc.workers)
		if len(got) != tc.wantChunks {
			t.Errorf("scatterLayout(%d, %d) made %d chunks, want %d",
				tc.n, tc.workers, len(got), tc.wantChunks)
		}
	}
	if got := scatterLayout(1000, 1); len(got) != 1 {
		t.Errorf("one worker should get the single serial chunk, got %d", len(got))
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 9} {
		n := 513
		visits := make([]int32, n)
		For(n, w, func(i int) { atomic.AddInt32(&visits[i], 1) })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
		}
	}
}

func TestEmptyRanges(t *testing.T) {
	called := false
	Do(0, 4, func(Chunk) { called = true })
	For(0, 4, func(int) { called = true })
	if called {
		t.Error("n=0 should not invoke fn")
	}
}

func TestMapIndexOrderedAcrossWorkers(t *testing.T) {
	const n = 11 // deliberately small: Map must still fan out
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 16} {
		got := Map(n, workers, func(i int) int { return i * i })
		if len(got) != n {
			t.Fatalf("workers=%d: len = %d, want %d", workers, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: Map[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
	if out := Map(0, 4, func(i int) int { return i }); out != nil {
		t.Errorf("Map over empty range = %v, want nil", out)
	}
}

func TestMapRunsConcurrently(t *testing.T) {
	var calls atomic.Int64
	Map(8, 4, func(i int) int {
		calls.Add(1)
		return i
	})
	if calls.Load() != 8 {
		t.Errorf("Map invoked fn %d times, want 8", calls.Load())
	}
}
