package parallel

import (
	"math"
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
		chunks := Split(tc.n, tc.parts)
		covered := 0
		prev := 0
		for _, ch := range chunks {
			if ch.Lo != prev {
				t.Fatalf("Split(%d,%d): gap at %d (chunks %v)", tc.n, tc.parts, ch.Lo, chunks)
			}
			if ch.Len() <= 0 {
				t.Fatalf("Split(%d,%d): empty chunk %v", tc.n, tc.parts, ch)
			}
			covered += ch.Len()
			prev = ch.Hi
		}
		if covered != tc.n {
			t.Fatalf("Split(%d,%d) covers %d indices", tc.n, tc.parts, covered)
		}
		if tc.parts > 0 && len(chunks) > tc.parts {
			t.Fatalf("Split(%d,%d) produced %d chunks", tc.n, tc.parts, len(chunks))
		}
	}
}

func TestReduceLayoutIndependentOfWorkerCount(t *testing.T) {
	// The reduction chunk boundaries depend only on n, so ordered
	// reductions are bit-identical for any worker count: ~chunkTarget
	// wide, one chunk for small n.
	for _, tc := range []struct{ n, wantChunks int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {1000, 16},
	} {
		got := reduceLayout(tc.n)
		if len(got) != tc.wantChunks {
			t.Errorf("reduceLayout(%d) made %d chunks, want %d", tc.n, len(got), tc.wantChunks)
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

func TestSumDeterministicAcrossWorkers(t *testing.T) {
	n := 10000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * 1e-3
	}
	chunkSum := func(ch Chunk) float64 {
		var s float64
		for i := ch.Lo; i < ch.Hi; i++ {
			s += vals[i]
		}
		return s
	}
	ref := Sum(n, 1, chunkSum)
	for _, w := range []int{0, 2, 3, 8} {
		for rep := 0; rep < 5; rep++ {
			if got := Sum(n, w, chunkSum); got != ref {
				t.Fatalf("workers=%d rep=%d: sum %v != %v", w, rep, got, ref)
			}
		}
	}
}

func TestSumChunksOrdered(t *testing.T) {
	// Sum must add the partials in chunk order: with partials of mixed
	// magnitude the float sum depends on that order, so compare with an
	// explicit left fold over the layout.
	const n = 3000
	chunks := reduceLayout(n)
	partial := func(ch Chunk) float64 {
		return math.Sin(float64(ch.Lo)) * math.Pow(10, float64(ch.Lo%17))
	}
	var want float64
	for _, ch := range chunks {
		want += partial(ch)
	}
	for _, w := range []int{1, 4} {
		if got := Sum(n, w, partial); got != want {
			t.Errorf("workers=%d: Sum = %v, chunk-order fold %v", w, got, want)
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
	if got := Sum(0, 4, func(Chunk) float64 { return 1 }); got != 0 {
		t.Errorf("Sum over empty range = %v", got)
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
