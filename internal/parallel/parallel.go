// Package parallel provides the small worker-pool primitives that
// SLiMFast's hot paths (the EM E-step, inference, likelihood scoring,
// experiment replication, the streaming engine's shard fan-out) use to
// scale with cores while staying deterministic.
//
// Determinism is the design constraint: every result is bit-identical
// for every worker count, 1 included. The side-effect runners (Do,
// For, Map) require callbacks to write only index-owned slots, so
// chunking cannot influence their results — which frees their layout
// to adapt to the worker count (at least one chunk per worker,
// ~chunkTarget-wide chunks on large index spaces). The ordered
// reduction Sum instead fixes its chunk boundaries as a function of
// the problem size alone and adds the per-chunk results in chunk
// order, so its floating-point association never depends on workers.
//
// Workers <= 0 means runtime.GOMAXPROCS(0). Workers == 1 runs inline
// on the calling goroutine with no pool overhead.
package parallel

import (
	"runtime"
	"sync"
)

// Resolve maps a user-facing worker count to an effective one:
// anything <= 0 selects runtime.GOMAXPROCS(0).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Chunk is a half-open index range [Lo, Hi).
type Chunk struct{ Lo, Hi int }

// Len returns the number of indices in the chunk.
func (c Chunk) Len() int { return c.Hi - c.Lo }

// chunkTarget is the partition width the primitives aim for when
// running in parallel over fine-grained index spaces (objects,
// examples). Reduction layouts derive their boundaries only from n and
// this constant, so reductions associate identically no matter how
// many workers drain the chunk queue.
const chunkTarget = 64

// Split partitions [0, n) into at most parts contiguous near-equal
// chunks (fewer when n < parts). parts <= 0 yields a single chunk.
func Split(n, parts int) []Chunk {
	if n <= 0 {
		return nil
	}
	if parts <= 1 || n == 1 {
		return []Chunk{{0, n}}
	}
	if parts > n {
		parts = n
	}
	chunks := make([]Chunk, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if lo < hi {
			chunks = append(chunks, Chunk{lo, hi})
		}
	}
	return chunks
}

// scatterLayout chunks [0, n) for the side-effect runners (Do, For,
// Map), whose callbacks write index-owned slots: chunk boundaries
// cannot influence results there, so the layout is free to adapt to
// the worker count. It guarantees at least one chunk per worker (so a
// 4-seed replication with 4 workers actually fans out) while keeping
// chunks at most ~chunkTarget wide on large index spaces for load
// balancing. One worker gets the single serial chunk.
func scatterLayout(n, workers int) []Chunk {
	w := Resolve(workers)
	if w <= 1 {
		return Split(n, 1)
	}
	parts := (n + chunkTarget - 1) / chunkTarget
	if parts < w {
		parts = w
	}
	return Split(n, parts)
}

// reduceLayout chunks [0, n) for the ordered reduction Sum:
// boundaries depend only on n, never on the worker count, so the
// reduction associates identically for every workers value.
func reduceLayout(n int) []Chunk {
	return Split(n, (n+chunkTarget-1)/chunkTarget)
}

// run drains the chunk list with up to workers goroutines, calling
// fn(chunkIndex, chunk) for each. With one worker (or one chunk) it
// runs inline.
func run(chunks []Chunk, workers int, fn func(c int, ch Chunk)) {
	w := Resolve(workers)
	if w > len(chunks) {
		w = len(chunks)
	}
	if w <= 1 {
		for c, ch := range chunks {
			fn(c, ch)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for c := range next {
				fn(c, chunks[c])
			}
		}()
	}
	for c := range chunks {
		next <- c
	}
	close(next)
	wg.Wait()
}

// Do runs fn over the deterministic chunking of [0, n) with up to
// workers goroutines. fn must only write state owned by indices inside
// its chunk. With workers resolving to 1 the single chunk [0, n) runs
// inline on the calling goroutine.
func Do(n, workers int, fn func(ch Chunk)) {
	run(scatterLayout(n, workers), workers, func(_ int, ch Chunk) { fn(ch) })
}

// For runs fn(i) for every i in [0, n) with up to workers goroutines,
// chunked as in Do.
func For(n, workers int, fn func(i int)) {
	Do(n, workers, func(ch Chunk) {
		for i := ch.Lo; i < ch.Hi; i++ {
			fn(i)
		}
	})
}

// Map computes fn(i) for every i in [0, n) with up to workers
// goroutines and returns the results in index order. Each result slot
// is owned by its index, so the output is deterministic for any worker
// count and any chunking. Map fans out even for small n (one chunk per
// worker at least), which makes it the right primitive for
// coarse-grained per-shard or per-partition work.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	Do(n, workers, func(ch Chunk) {
		for i := ch.Lo; i < ch.Hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}

// Sum evaluates fn per chunk and adds the partial results in chunk
// order. Because the chunk layout depends only on n, the result is
// bit-identical for every worker count.
func Sum(n, workers int, fn func(ch Chunk) float64) float64 {
	chunks := reduceLayout(n)
	parts := make([]float64, len(chunks))
	run(chunks, workers, func(c int, ch Chunk) { parts[c] = fn(ch) })
	var total float64
	for _, part := range parts {
		total += part
	}
	return total
}
