package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// The frame fan-out machinery shared by the archival and restoration
// pipelines. Emblem frames are independent by construction (§3.1 — each
// carries its own header, inner code and outer-code group coordinates), so
// the per-frame stages (rasterize/encode on the way out, scan/decode on
// the way back) run on a bounded worker pool. Order never depends on
// scheduling: every worker writes only the slot of the frame index it
// claimed, and the serial stages that follow read the slots in index
// order. A frame-fatal error cancels the remaining work through the
// context; among the errors recorded before cancellation lands, the one
// from the lowest frame index is reported.

// resolveWorkers maps an Options.Workers value to a concrete pool size:
// n <= 0 selects GOMAXPROCS (the default), anything else is used as
// given — then the result is capped at live, the number of work items
// actually available (frames to encode or scan), so tiny inputs never
// spin up goroutines that would exit without claiming a frame. live <= 0
// means the item count is unknown at call time (an Engine sizes its
// scratch before ever seeing a volume) and leaves the pool uncapped.
func resolveWorkers(n, live int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if live > 0 && n > live {
		n = live
	}
	return n
}

// frontier replays out-of-order completions in strict index order: the
// parallel stage reports indices as they finish, drain walks the
// contiguous prefix exactly once per index. It is the ordering half of
// the pipelines' serial tail stages — the restore decode stage
// (decodeFrames) feeds its consumer through one, and the archive placer
// is its group-granular analogue (the planner emits groups in order, so
// the placer's frontier is the channel itself).
type frontier struct {
	ready []bool
	next  int
}

func newFrontier(n int) *frontier { return &frontier{ready: make([]bool, n)} }

// complete marks index i finished. Each index must complete exactly once.
func (f *frontier) complete(i int) { f.ready[i] = true }

// drain calls fn(i) for every index that has become contiguous with the
// already-drained prefix, in increasing order.
func (f *frontier) drain(fn func(i int)) {
	for f.next < len(f.ready) && f.ready[f.next] {
		fn(f.next)
		f.next++
	}
}

// done reports whether every index has been drained.
func (f *frontier) done() bool { return f.next == len(f.ready) }

// forEachFrame runs fn(ctx, worker, i) for every i in [0, n), fanning
// out over at most `workers` goroutines. fn must confine its writes to
// per-index storage owned by the caller, plus any per-worker scratch it
// keys off the worker id: each id in [0, workers) is owned by exactly
// one goroutine for the whole run, which is how the restore pipeline
// threads reusable emulator state through the pool without locks.
//
// The first fn error cancels ctx so in-flight siblings can stop early and
// queued frames are never started; forEachFrame still waits for every
// started call to return before it does. When several frames fail before
// cancellation lands, the error of the lowest such frame index is
// returned (which errors got recorded can vary with scheduling; the
// tie-break among them is deterministic).
// With workers == 1 (or n <= 1) the frames run strictly serially on the
// calling goroutine — the reference path the parallel one must match
// byte-for-byte.
func forEachFrame(ctx context.Context, workers, n int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = resolveWorkers(workers, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next int64 = -1 // atomically claimed frame cursor
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make(map[int]error) // frame index → fatal error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, worker, i); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if len(errs) == 0 {
		return ctx.Err()
	}
	first := -1
	for i := range errs {
		if first < 0 || i < first {
			first = i
		}
	}
	return errs[first]
}
