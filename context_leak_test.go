package rsonpath

// Goroutine-leak regression tests for the ctxReader pump: the helper
// goroutine that shields a run from a blocking reader must wind down as
// soon as its in-flight Read completes, and a canceled streaming run must
// leave no goroutine behind once the reader unblocks. pumpDone is the
// observability hook: the pump closes it on exit.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsonpath/internal/faultreader"
)

// TestCtxReaderPumpWindsDown drives the pump through the blocking-reader
// life cycle directly: a Read stuck in the underlying reader survives the
// consumer's cancellation (the consumer returns immediately), and the pump
// exits — within one read — once the reader unblocks after stop().
func TestCtxReaderPumpWindsDown(t *testing.T) {
	unblock := make(chan struct{})
	r := faultreader.Blocking(nil, 0, unblock) // blocks on the first Read
	ctx, cancel := context.WithCancel(context.Background())
	cr := newCtxReader(ctx, r)

	readErr := make(chan error, 1)
	go func() {
		_, err := cr.Read(make([]byte, 16))
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-readErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Read err %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read did not observe cancellation while the reader blocked")
	}

	// The pump is still parked in the reader's Read; it must not have died
	// behind the consumer's back.
	select {
	case <-cr.pumpDone:
		t.Fatal("pump exited while its Read was still blocked")
	default:
	}

	cr.stop()
	close(unblock)
	select {
	case <-cr.pumpDone:
	case <-time.After(5 * time.Second):
		t.Fatal("pump leaked: still alive after stop() and an unblocked reader")
	}
}

// TestCtxReaderPumpExitsOnCleanStop: without any blocking, stop() alone
// releases the pump.
func TestCtxReaderPumpExitsOnCleanStop(t *testing.T) {
	cr := newCtxReader(context.Background(), strings.NewReader("{}"))
	if _, err := cr.Read(make([]byte, 2)); err != nil {
		t.Fatalf("read: %v", err)
	}
	cr.stop()
	select {
	case <-cr.pumpDone:
	case <-time.After(5 * time.Second):
		t.Fatal("pump did not exit after stop()")
	}
}

// TestRunReaderCancellationNoLeak repeats streaming runs that hit their
// WithTimeout deadline against blocking readers and requires the goroutine
// count to settle back to its baseline once the readers unblock — the
// end-to-end version of the pump regression.
func TestRunReaderCancellationNoLeak(t *testing.T) {
	const window = 512
	doc := []byte(`{"pad": "` + strings.Repeat("x", 4*window) + `", "a": 1}`)
	q := MustCompile("$.a", WithStreamWindow(window), WithTimeout(10*time.Millisecond))

	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		unblock := make(chan struct{})
		r := faultreader.Blocking(doc, window, unblock)
		if err := q.RunReader(r, func(int) {}); !errors.Is(err, ErrCanceled) {
			close(unblock)
			t.Fatalf("run %d: err %v, want ErrCanceled", i, err)
		}
		close(unblock) // release the parked pump
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines %d after canceled runs, %d before", n, before)
	}
}
