package dispatch

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid parses the running goroutine's id from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// eventually polls cond until it holds or a few seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("never: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// busy reports the goroutines running anything: every goroutine but
// the parked workers.
func busy() int { return runtime.NumGoroutine() - Parked() }

var errOdd = errors.New("odd")

// TestFanoutObservesEachOutcomeOnce: every call's outcome reaches
// observe exactly once, with its own value and error, and every observe
// runs on the goroutine that called Fanout.
func TestFanoutObservesEachOutcomeOnce(t *testing.T) {
	const n = 200
	caller := goid()
	seen := make(map[int]int)
	Fanout(context.Background(), 8, n, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, errOdd
		}
		return 2 * i, nil
	}, func(i, v int, err error) bool {
		if g := goid(); g != caller {
			t.Errorf("observe ran on goroutine %d, Fanout's caller is %d", g, caller)
		}
		seen[i]++
		switch {
		case i%2 == 1 && !errors.Is(err, errOdd):
			t.Errorf("index %d: error %v, want %v", i, err, errOdd)
		case i%2 == 0 && (err != nil || v != 2*i):
			t.Errorf("index %d: (%d, %v), want (%d, nil)", i, v, err, 2*i)
		}
		return true
	})
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d observed %d times", i, seen[i])
		}
	}
}

// TestFanoutBoundsInFlight: with limit < n, exactly limit calls run at
// once. The first limit calls hold until all of them are in flight, so
// the high-water mark reaches limit; it must never pass it.
func TestFanoutBoundsInFlight(t *testing.T) {
	const n, limit = 100, 4
	var inflight, high atomic.Int32
	full := make(chan struct{})
	var once sync.Once
	Fanout(context.Background(), limit, n, func(context.Context, int) (struct{}, error) {
		now := inflight.Add(1)
		for h := high.Load(); now > h && !high.CompareAndSwap(h, now); h = high.Load() {
		}
		if now == limit {
			once.Do(func() { close(full) })
		}
		<-full
		inflight.Add(-1)
		return struct{}{}, nil
	}, func(int, struct{}, error) bool { return true })
	if h := high.Load(); h != limit {
		t.Fatalf("high-water mark of calls in flight %d, limit %d", h, limit)
	}
}

// TestFanoutEarlyStopSettlesEveryIndex: after observe returns false,
// every index is still observed once; the calls in flight end with the
// cancellation, and the indices not yet run are settled with the
// context error without running. A context already done runs nothing.
func TestFanoutEarlyStopSettlesEveryIndex(t *testing.T) {
	const n, limit = 100, 4
	var ran [n]atomic.Bool
	seen := make([]int, n)
	Fanout(context.Background(), limit, n, func(ctx context.Context, i int) (struct{}, error) {
		ran[i].Store(true)
		if i == 0 {
			return struct{}{}, nil
		}
		<-ctx.Done()
		return struct{}{}, ctx.Err()
	}, func(i int, _ struct{}, err error) bool {
		seen[i]++
		if i == 0 {
			if err != nil {
				t.Errorf("index 0: %v", err)
			}
			return false
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("index %d after the stop: %v, want context.Canceled", i, err)
		}
		return true
	})
	runs := 0
	for i := range seen {
		if seen[i] != 1 {
			t.Errorf("index %d observed %d times", i, seen[i])
		}
		if ran[i].Load() {
			runs++
		}
	}
	// Each worker runs at most one call past the first stop it could see.
	if runs > limit+1 {
		t.Errorf("%d calls ran after an early stop at the first outcome, limit %d", runs, limit)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	settled := 0
	Fanout(ctx, limit, n, func(context.Context, int) (struct{}, error) {
		t.Error("a call ran under a context already cancelled")
		return struct{}{}, nil
	}, func(i int, _ struct{}, err error) bool {
		settled++
		if !errors.Is(err, context.Canceled) {
			t.Errorf("index %d: %v, want context.Canceled", i, err)
		}
		return true
	})
	if settled != n {
		t.Errorf("%d of %d indices settled under a cancelled context", settled, n)
	}
}

// TestFanoutNoTasks: n <= 0 returns at once, calling nothing.
func TestFanoutNoTasks(t *testing.T) {
	for _, n := range []int{0, -1} {
		Fanout(context.Background(), 4, n, func(context.Context, int) (int, error) {
			t.Errorf("n=%d: call ran", n)
			return 0, nil
		}, func(int, int, error) bool {
			t.Errorf("n=%d: observe ran", n)
			return true
		})
	}
}

// TestGoroutinesFlatAcrossFanouts: once warm, 10,000 sequential
// fan-outs leave no goroutine behind but parked workers, at most
// maxIdle of them, and a task handed to Go while a worker is parked
// runs on that worker rather than on a new goroutine.
func TestGoroutinesFlatAcrossFanouts(t *testing.T) {
	base := busy()
	fan := func() {
		Fanout(context.Background(), 0, 9, func(_ context.Context, i int) (int, error) {
			return i, nil
		}, func(int, int, error) bool { return true })
	}
	for range 100 {
		fan()
	}
	eventually(t, "the warm-up's workers park", func() bool { return busy() <= base })
	warm := runtime.NumGoroutine()
	for range 10000 {
		fan()
	}
	eventually(t, "the workers park", func() bool { return busy() <= base })
	if g := runtime.NumGoroutine(); g > base+maxIdle {
		t.Fatalf("%d goroutines after 10,000 fan-outs: %d running, at most %d parked allowed (%d when warm)", g, base, maxIdle, warm)
	}

	// A parked worker takes the next task. Parked counts a worker just
	// before it blocks, so a hand-off may miss it once; retry.
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		eventually(t, "a worker parks", func() bool { return Parked() > 0 && busy() <= base })
		before := runtime.NumGoroutine()
		during := make(chan int)
		Go(func() { during <- runtime.NumGoroutine() })
		reused = <-during == before
	}
	if !reused {
		t.Fatal("every task started a new goroutine while workers were parked")
	}
}

// TestIdleWorkersBounded: after a burst of 1,000 concurrent blocked
// tasks is released, at most maxIdle of its workers stay parked; the
// rest exit.
func TestIdleWorkersBounded(t *testing.T) {
	base := busy()
	const burst = 1000
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(burst)
	for range burst {
		Go(func() {
			started.Done()
			<-release
		})
	}
	started.Wait()
	close(release)
	eventually(t, "the burst's workers park or exit", func() bool { return busy() <= base })
	if p := Parked(); p > maxIdle {
		t.Fatalf("%d workers parked, at most %d allowed", p, maxIdle)
	}
	if g := runtime.NumGoroutine(); g > base+maxIdle {
		t.Fatalf("%d goroutines after the burst, %d running before it", g, base)
	}
}

// TestFinishedTaskIsCollectable: a parked worker holds no reference to
// the task it last ran, so a buffer that task captured is collected.
func TestFinishedTaskIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	ran := make(chan struct{})
	func() {
		buf := new([64 << 10]byte)
		runtime.SetFinalizer(buf, func(*[64 << 10]byte) { close(collected) })
		Go(func() {
			buf[0] = 1
			close(ran)
		})
	}()
	<-ran
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the buffer a finished task captured was never collected")
		}
	}
}

// stackHungry needs about 8 KiB of stack, as a fan-out worker's path
// through transport/tcp to the socket does (docs/PERFORMANCE.md §12.1):
// a goroutine that starts cold grows its stack to run it.
//
//go:noinline
func stackHungry(i int) int {
	var frame [8 << 10]byte
	frame[i%len(frame)] = byte(i)
	return int(frame[(i*7)%len(frame)])
}

// BenchmarkFanout: one quorum round's worth of fan-out — nine calls,
// all in flight at once — each needing the stack of a tcp RPC.
func BenchmarkFanout(b *testing.B) {
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		Fanout(context.Background(), 0, 9, func(_ context.Context, j int) (int, error) {
			return stackHungry(i + j), nil
		}, func(_ int, v int, _ error) bool {
			sum += v
			return true
		})
	}
	benchSink = sum
}

var benchSink int
