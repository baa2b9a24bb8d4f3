package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestCancellationStress cancels archive, restore and the selective and
// salvage front ends (RestoreRange, RestoreTable, SalvageTo) from outside
// at random points — before the call, and anywhere across an uncancelled
// run's duration — at workers 2, 4 and 8. Every call must return in
// bounded time, either with exactly the uncancelled result or with an
// error matching context.Canceled (and ErrRestore on the restore side),
// and no goroutine may outlive the calls. A queued archive group whose
// frame tasks were cut short by the caller's cancel used to leave the
// placer waiting forever on the group.
func TestCancellationStress(t *testing.T) {
	data := testPayload(12000)
	opts := DefaultOptions(tinyProfile())
	opts.Workers = 2
	t0 := time.Now()
	ref, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	archiveDur := time.Since(t0)
	t0 = time.Now()
	if _, _, err := RestoreVolume(ref.Volume, ref.BootstrapText, RestoreOptions{Mode: RestoreNative, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	restoreDur := time.Since(t0)

	// The selective and salvage front ends run on an indexed catalog
	// volume; their uncancelled results are the references.
	idx, dump := indexedArchive(t, true)
	bag := volumeBag(t, idx.Volume)
	ro := RestoreOptions{Mode: RestoreNative, Workers: 2}
	t0 = time.Now()
	if _, _, err := RestoreRange(idx.Volume, idx.BootstrapText, 0, 256, ro); err != nil {
		t.Fatal(err)
	}
	rangeDur := time.Since(t0)
	t0 = time.Now()
	table, _, err := RestoreTable(idx.Volume, idx.BootstrapText, "nation", ro)
	if err != nil {
		t.Fatal(err)
	}
	tableDur := time.Since(t0)
	t0 = time.Now()
	if _, err := SalvageTo(io.Discard, bag, SalvageOptions{Mode: RestoreNative, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	salvageDur := time.Since(t0)
	restoreCancelled := func(op string, workers int, err error) {
		if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRestore) {
			t.Errorf("workers=%d: cancelled %s: %v, want ErrRestore and context.Canceled", workers, op, err)
		}
	}

	trials := 6
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(17))
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{2, 4, 8} {
		for trial := 0; trial < trials; trial++ {
			// Trial 0 cancels before the call; the rest at a random point
			// within (a little past) an uncancelled run.
			var archAt, restAt, rangeAt, tableAt, salvageAt time.Duration
			if trial > 0 {
				archAt = time.Duration(rng.Int63n(int64(archiveDur) * 5 / 4))
				restAt = time.Duration(rng.Int63n(int64(restoreDur) * 5 / 4))
				rangeAt = time.Duration(rng.Int63n(int64(rangeDur) * 5 / 4))
				tableAt = time.Duration(rng.Int63n(int64(tableDur) * 5 / 4))
				salvageAt = time.Duration(rng.Int63n(int64(salvageDur) * 5 / 4))
			}

			cancelAfter(t, archAt, func(ctx context.Context) {
				o := opts
				o.Workers, o.Context = workers, ctx
				arch, err := CreateArchive(data, o)
				switch {
				case err == nil:
					if arch.BootstrapText != ref.BootstrapText || arch.Manifest.TotalFrames != ref.Manifest.TotalFrames {
						t.Errorf("workers=%d: archive finished despite cancel but differs from the uncancelled one", workers)
					}
				case !errors.Is(err, context.Canceled):
					t.Errorf("workers=%d: cancelled archive: %v, want context.Canceled", workers, err)
				}
			})

			cancelAfter(t, restAt, func(ctx context.Context) {
				got, _, err := RestoreVolume(ref.Volume, ref.BootstrapText,
					RestoreOptions{Mode: RestoreNative, Workers: workers, Context: ctx})
				switch {
				case err == nil:
					if !bytes.Equal(got, data) {
						t.Errorf("workers=%d: restore finished despite cancel but bytes differ", workers)
					}
				case !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRestore):
					t.Errorf("workers=%d: cancelled restore: %v, want ErrRestore and context.Canceled", workers, err)
				}
			})

			cancelAfter(t, rangeAt, func(ctx context.Context) {
				got, _, err := RestoreRange(idx.Volume, idx.BootstrapText, 0, 256,
					RestoreOptions{Mode: RestoreNative, Workers: workers, Context: ctx})
				if err != nil {
					restoreCancelled("range", workers, err)
				} else if !bytes.Equal(got, dump[:256]) {
					t.Errorf("workers=%d: range finished despite cancel but bytes differ", workers)
				}
			})

			cancelAfter(t, tableAt, func(ctx context.Context) {
				got, _, err := RestoreTable(idx.Volume, idx.BootstrapText, "nation",
					RestoreOptions{Mode: RestoreNative, Workers: workers, Context: ctx})
				if err != nil {
					restoreCancelled("table", workers, err)
				} else if !bytes.Equal(got, table) {
					t.Errorf("workers=%d: table finished despite cancel but bytes differ", workers)
				}
			})

			cancelAfter(t, salvageAt, func(ctx context.Context) {
				var buf bytes.Buffer
				_, err := SalvageTo(&buf, bag,
					SalvageOptions{Mode: RestoreNative, Workers: workers, Context: ctx})
				if err != nil {
					restoreCancelled("salvage", workers, err)
				} else if !bytes.Equal(buf.Bytes(), dump) {
					t.Errorf("workers=%d: salvage finished despite cancel but bytes differ", workers)
				}
			})
		}
		checkNoLeakedGoroutines(t, baseline)
	}
}

// cancelAfter runs fn with a context cancelled after d (before fn starts
// when d is 0) and fails the test with every goroutine's stack if fn has
// not returned within a minute — a hang is the bug this guards against.
func cancelAfter(t *testing.T, d time.Duration, fn func(ctx context.Context)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if d == 0 {
		cancel()
	} else {
		timer := time.AfterFunc(d, cancel)
		defer timer.Stop()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(ctx)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("call did not return within a minute of its cancel:\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// checkNoLeakedGoroutines waits briefly for exiting goroutines, then
// fails if more are alive than at baseline.
func checkNoLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines alive, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
