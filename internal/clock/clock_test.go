package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// TestAdvanceFiresInDeadlineOrder: Advance fires every due timer in
// deadline order, arming order among equal deadlines, each seeing
// Now() at its own deadline — including a timer a callback arms — and
// leaves later timers armed.
func TestAdvanceFiresInDeadlineOrder(t *testing.T) {
	m := NewManual(epoch)
	type fire struct {
		name string
		at   time.Duration
	}
	var got []fire
	arm := func(name string, d time.Duration) {
		m.AfterFunc(d, func() { got = append(got, fire{name, m.Now().Sub(epoch)}) })
	}
	arm("c", 30*time.Millisecond)
	arm("a", 10*time.Millisecond)
	arm("late", time.Hour)
	arm("b1", 20*time.Millisecond)
	arm("b2", 20*time.Millisecond)
	m.AfterFunc(15*time.Millisecond, func() {
		got = append(got, fire{"chain", m.Now().Sub(epoch)})
		arm("chained", 10*time.Millisecond) // due at 25ms, inside this Advance
	})

	m.Advance(40 * time.Millisecond)
	want := []fire{
		{"a", 10 * time.Millisecond},
		{"chain", 15 * time.Millisecond},
		{"b1", 20 * time.Millisecond},
		{"b2", 20 * time.Millisecond},
		{"chained", 25 * time.Millisecond},
		{"c", 30 * time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if now := m.Now().Sub(epoch); now != 40*time.Millisecond {
		t.Fatalf("Now after Advance = %v, want 40ms", now)
	}
	if p := m.Pending(); p != 1 {
		t.Fatalf("%d timers pending, want the 1h one", p)
	}
}

// TestStopBeforeAndAfterFiring: Stop disarms an armed timer (true, and
// the callback never runs) and reports false once it has fired.
func TestStopBeforeAndAfterFiring(t *testing.T) {
	m := NewManual(epoch)
	ran := 0
	stopped := m.AfterFunc(time.Second, func() { ran++ })
	fired := m.AfterFunc(time.Second, func() { ran += 10 })
	if !stopped.Stop() {
		t.Fatal("Stop of an armed timer returned false")
	}
	if stopped.Stop() {
		t.Fatal("second Stop returned true")
	}
	m.Advance(time.Second)
	if ran != 10 {
		t.Fatalf("callbacks ran %d, want only the unstopped one (10)", ran)
	}
	if fired.Stop() {
		t.Fatal("Stop after firing returned true")
	}
	if p := m.Pending(); p != 0 {
		t.Fatalf("%d timers pending, want 0", p)
	}
}

// TestSleepNonPositive: for d ≤ 0 Sleep returns ctx.Err() at once and
// arms nothing — a retry loop stops on a dead context even when its
// backoff is zero.
func TestSleepNonPositive(t *testing.T) {
	m := NewManual(epoch)
	if err := Sleep(context.Background(), m, 0); err != nil {
		t.Fatalf("Sleep(0) on a live context = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, m, -time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep(-1s) on a dead context = %v, want context.Canceled", err)
	}
	if p := m.Pending(); p != 0 {
		t.Fatalf("%d timers pending, want 0", p)
	}
}

// TestSleepOnManual: Sleep wakes when Advance reaches its deadline and
// not before, and a cancelled Sleep returns ctx.Err() and leaves no
// timer armed.
func TestSleepOnManual(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan error, 1)
	go func() { done <- Sleep(context.Background(), m, time.Minute) }()
	waitPending(t, m, 1)
	m.Advance(time.Minute - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("Sleep returned %v before its deadline", err)
	default:
	}
	m.Advance(time.Nanosecond)
	if err := <-done; err != nil {
		t.Fatalf("Sleep = %v, want nil", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- Sleep(ctx, m, time.Minute) }()
	waitPending(t, m, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sleep = %v, want context.Canceled", err)
	}
	if p := m.Pending(); p != 0 {
		t.Fatalf("cancelled Sleep left %d timers pending", p)
	}
}

// TestSleepOnReal: Sleep on the runtime clock wakes after d.
func TestSleepOnReal(t *testing.T) {
	const d = 5 * time.Millisecond
	start := time.Now()
	if err := Sleep(context.Background(), Real{}, d); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("Sleep(%v) returned after %v", d, el)
	}
}

func waitPending(t *testing.T, m *Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Pending() != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending timers", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
