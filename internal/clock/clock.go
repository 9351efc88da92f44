// Package clock is the module's one source of timers: every non-test
// wait outside cmd/, examples/ and the benchmark arms through a Clock,
// Real in production and Manual in tests that step time themselves.
package clock

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"
)

// Clock tells the time and arms one-shot timers: AfterFunc calls f
// once d has elapsed, unless the returned Timer is stopped first.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is an armed AfterFunc. Stop disarms it, reporting whether it
// did so before f was called.
type Timer interface{ Stop() bool }

// Real is the runtime clock, time.Now and time.AfterFunc and nothing
// more: a sub-millisecond wait costs what the runtime makes it cost.
type Real struct{}

func (Real) Now() time.Time                            { return time.Now() }
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Sleep waits d on c and returns nil, or ctx.Err() if ctx ends first or
// at once for d ≤ 0, so that a retry loop stops on a dead context.
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	woke := make(chan struct{})
	t := c.AfterFunc(d, func() { close(woke) })
	select {
	case <-woke:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}

// Manual is a clock that moves only when Advance is called. Its
// timers' callbacks run on the goroutine calling Advance.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers []*manualTimer
}

type manualTimer struct {
	m  *Manual
	at time.Time
	f  func()
}

// NewManual returns a Manual clock reading start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the clock's current reading.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc arms f for Now()+d; for d ≤ 0 the next Advance runs it.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{m: m, at: m.now.Add(d), f: f}
	i := sort.Search(len(m.timers), func(i int) bool { return m.timers[i].at.After(t.at) })
	m.timers = slices.Insert(m.timers, i, t)
	return t
}

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	i := slices.Index(t.m.timers, t)
	if i >= 0 {
		t.m.timers = slices.Delete(t.m.timers, i, i+1)
	}
	return i >= 0
}

// Advance moves the clock forward by d, firing every timer due by then
// in deadline order (arming order among equals), each with Now() at
// its own deadline; that includes timers the callbacks arm.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	end := m.now.Add(d)
	for len(m.timers) > 0 && !m.timers[0].at.After(end) {
		t := m.timers[0]
		m.timers = m.timers[1:]
		if t.at.After(m.now) {
			m.now = t.at
		}
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
	m.now = end
	m.mu.Unlock()
}

// Pending counts armed timers: a test waits on it for a goroutine to park.
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}
