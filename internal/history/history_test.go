package history

import (
	"strings"
	"testing"
)

// script replays a sequence of events against a fresh history: "iN"
// invokes op N (declared in ops), "rN" responds to it.
type scripted struct {
	client int
	kind   Kind
	value  uint64 // written, or returned by a read
	ok     bool
}

func run(t *testing.T, initial uint64, ops []scripted, events string) []Violation {
	t.Helper()
	h := New(map[int]uint64{0: initial})
	handles := make([]int, len(ops))
	for _, ev := range strings.Fields(events) {
		i := int(ev[1] - '0')
		o := ops[i]
		switch ev[0] {
		case 'i':
			v := o.value
			if o.kind == Read {
				v = 0
			}
			handles[i] = h.Invoke(o.client, o.kind, 0, v)
		case 'r':
			h.Respond(handles[i], o.ok, o.value)
		default:
			t.Fatalf("bad event %q", ev)
		}
	}
	return h.Check()
}

func TestCheckRegisterRule(t *testing.T) {
	const init, a, b = 100, 1, 2
	cases := []struct {
		name   string
		ops    []scripted
		events string
		want   string // "" for no violation, else a substring of Why
	}{
		{
			name:   "read the initial value",
			ops:    []scripted{{kind: Read, value: init, ok: true}},
			events: "i0 r0",
		},
		{
			name:   "read the latest acked write",
			ops:    []scripted{{kind: Write, value: a, ok: true}, {kind: Read, value: a, ok: true}},
			events: "i0 r0 i1 r1",
		},
		{
			name:   "stale: the initial value after an acked write",
			ops:    []scripted{{kind: Write, value: a, ok: true}, {kind: Read, value: init, ok: true}},
			events: "i0 r0 i1 r1",
			want:   "stale read",
		},
		{
			name:   "stale: an older acked write",
			ops:    []scripted{{kind: Write, value: a, ok: true}, {kind: Write, value: b, ok: true}, {kind: Read, value: a, ok: true}},
			events: "i0 r0 i1 r1 i2 r2",
			want:   "stale read",
		},
		{
			name:   "a write concurrent with the read may or may not be seen",
			ops:    []scripted{{kind: Write, value: a, ok: true}, {kind: Read, value: init, ok: true}, {kind: Read, value: a, ok: true}},
			events: "i0 i1 i2 r1 r2 r0",
		},
		{
			name:   "two overlapping acked writes apply in either order",
			ops:    []scripted{{kind: Write, value: a, ok: true}, {kind: Write, value: b, ok: true}, {kind: Read, value: a, ok: true}},
			events: "i0 i1 r0 r1 i2 r2",
		},
		{
			name:   "from the future",
			ops:    []scripted{{kind: Read, value: a, ok: true}, {kind: Write, value: a, ok: true}},
			events: "i0 r0 i1 r1",
			want:   "invoked after the read returned",
		},
		{
			name:   "a value nobody wrote",
			ops:    []scripted{{kind: Read, value: 77, ok: true}},
			events: "i0 r0",
			want:   "no write wrote",
		},
		{
			name:   "a failed write may surface later",
			ops:    []scripted{{kind: Write, value: a}, {kind: Write, value: b, ok: true}, {kind: Read, value: a, ok: true}},
			events: "i0 r0 i1 r1 i2 r2",
		},
		{
			name:   "a failed write proves nothing stale",
			ops:    []scripted{{kind: Write, value: a}, {kind: Read, value: init, ok: true}},
			events: "i0 r0 i1 r1",
		},
		{
			name:   "a pending write is indeterminate",
			ops:    []scripted{{kind: Write, value: a}, {kind: Read, value: a, ok: true}},
			events: "i0 i1 r1",
		},
		{
			name:   "a failed read is not checked",
			ops:    []scripted{{kind: Write, value: a, ok: true}, {kind: Read, value: 0}},
			events: "i0 r0 i1 r1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := run(t, init, c.ops, c.events)
			switch {
			case c.want == "" && len(got) > 0:
				t.Errorf("violations %v, want none", got)
			case c.want != "" && (len(got) != 1 || !strings.Contains(got[0].Why, c.want)):
				t.Errorf("violations %v, want one %q", got, c.want)
			}
		})
	}
}

// TestCheckKeysAreIndependent: a write of one key never makes a read of
// another stale.
func TestCheckKeysAreIndependent(t *testing.T) {
	h := New(map[int]uint64{0: 10, 1: 11})
	w := h.Invoke(0, Write, 0, 1)
	h.Respond(w, true, 0)
	r := h.Invoke(1, Read, 1, 0)
	h.Respond(r, true, 11)
	if v := h.Check(); len(v) != 0 {
		t.Fatalf("violations %v, want none", v)
	}
	r = h.Invoke(1, Read, 0, 0)
	h.Respond(r, true, 10)
	if v := h.Check(); len(v) != 1 || v[0].Read.Key != 0 {
		t.Fatalf("violations %v, want key 0's stale read", v)
	}
}
