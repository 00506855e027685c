// Package parallel provides the small worker-pool primitives that
// SLiMFast's hot paths (the EM E-step, inference, calibration
// counting, experiment replication, the streaming engine's shard
// fan-out) use to scale with cores while staying deterministic.
//
// Determinism is the design constraint: every result is bit-identical
// for every worker count, 1 included. The runners (Do, For, Map)
// require callbacks to write only slots owned by their index, so
// chunking cannot influence their results — which frees the layout to
// adapt to the worker count (at least one chunk per worker,
// ~chunkTarget-wide chunks on large index spaces). Nothing here
// reduces values across workers.
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

// chunkTarget is the partition width the primitives aim for when
// running in parallel over fine-grained index spaces (objects,
// examples).
const chunkTarget = 64

// split partitions [0, n) into at most parts contiguous near-equal
// chunks (fewer when n < parts). parts <= 0 yields a single chunk.
func split(n, parts int) []Chunk {
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

// scatterLayout chunks [0, n) for the runners (Do, For, Map), whose
// callbacks write index-owned slots: chunk boundaries cannot influence
// results there, so the layout is free to adapt to the worker count.
// It guarantees at least one chunk per worker (so a 4-seed replication
// with 4 workers actually fans out) while keeping chunks at most
// ~chunkTarget wide on large index spaces for load balancing. One
// worker gets the single serial chunk.
func scatterLayout(n, workers int) []Chunk {
	w := Resolve(workers)
	if w <= 1 {
		return split(n, 1)
	}
	parts := (n + chunkTarget - 1) / chunkTarget
	if parts < w {
		parts = w
	}
	return split(n, parts)
}

// Do runs fn over the chunking of [0, n) with up to workers
// goroutines. fn must only write state owned by indices inside its
// chunk. With workers resolving to 1 (or a single chunk) the chunks run
// inline on the calling goroutine.
func Do(n, workers int, fn func(ch Chunk)) {
	chunks := scatterLayout(n, workers)
	w := min(Resolve(workers), len(chunks))
	if w <= 1 {
		for _, ch := range chunks {
			fn(ch)
		}
		return
	}
	next := make(chan Chunk)
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for ch := range next {
				fn(ch)
			}
		}()
	}
	for _, ch := range chunks {
		next <- ch
	}
	close(next)
	wg.Wait()
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
