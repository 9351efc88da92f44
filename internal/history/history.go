// Package history is test support for consistency checking: it records
// the invocation and response of every operation a set of concurrent
// clients issues against a keyed store, and checks each key as a
// register.
//
// Every write carries a unique value, so each read maps to exactly one
// write and the check is polynomial — the read-mapping case of Gibbons
// and Korach ("Testing shared memories", SIAM J. Comput. 1997), with no
// general linearizability search. The rule, per key:
//
//   - a read returns a value some write of that key wrote (or the key's
//     initial value), and that write was invoked before the read
//     responded;
//   - a read returns the latest write acknowledged before it began, or a
//     write concurrent with it: if some acknowledged write began after
//     the returned write was acknowledged and was itself acknowledged
//     before the read began, the read is stale;
//   - a write that returned an error, or never returned, is
//     indeterminate: it may take effect at any point after it was
//     invoked, or never, so its value may be read at any later time and
//     it never proves a read stale.
//
// Time is a logical clock: one counter stamps every invocation and
// response, so the stamps order events the way real time did for the
// goroutines that recorded them.
package history

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind is an operation's kind.
type Kind int

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Outcome is how an operation returned.
type Outcome int

const (
	// Pending: the operation never returned. Checked like Failed.
	Pending Outcome = iota
	// Ok: the operation succeeded; a read's Value is what it returned.
	Ok
	// Failed: the operation returned an error.
	Failed
)

// Op is one recorded operation.
type Op struct {
	Client int
	Kind   Kind
	Key    int
	// Value is what a write wrote, or what a successful read returned.
	Value uint64
	// Invoke and Response are logical timestamps; Response is 0 while
	// the operation is pending.
	Invoke, Response int64
	Outcome          Outcome
}

func (o Op) String() string {
	out := [...]string{"pending", "ok", "failed"}[o.Outcome]
	return fmt.Sprintf("client %d %s key %d value %#x [%d,%d] %s", o.Client, o.Kind, o.Key, o.Value, o.Invoke, o.Response, out)
}

// History is a concurrent recorder of operations. Its zero value is not
// usable; call New.
type History struct {
	mu      sync.Mutex
	clock   int64
	ops     []Op
	initial map[int]uint64
}

// New returns an empty history whose keys start out holding the given
// values, as if written and acknowledged before any operation began.
func New(initial map[int]uint64) *History {
	h := &History{initial: make(map[int]uint64, len(initial))}
	for k, v := range initial {
		h.initial[k] = v
	}
	return h
}

// Invoke records the start of an operation and returns its handle for
// Respond. value is the write's value; a read passes 0.
func (h *History) Invoke(client int, kind Kind, key int, value uint64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	h.ops = append(h.ops, Op{Client: client, Kind: kind, Key: key, Value: value, Invoke: h.clock})
	return len(h.ops) - 1
}

// Respond records the end of operation op: ok reports success, and
// value is what a successful read returned (ignored for writes).
func (h *History) Respond(op int, ok bool, value uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	o := &h.ops[op]
	o.Response = h.clock
	o.Outcome = Failed
	if ok {
		o.Outcome = Ok
		if o.Kind == Read {
			o.Value = value
		}
	}
}

// Ops returns a copy of every recorded operation in invocation order.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Op(nil), h.ops...)
}

// Violation is one read the rule rejects.
type Violation struct {
	Read Op
	// Write is the write the read returned the value of; nil when no
	// write of the key wrote it.
	Write *Op
	// Newer is the acknowledged write that overwrote Write before the
	// read began; nil unless the read is stale.
	Newer *Op
	Why   string
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v", v.Why, v.Read)
	if v.Write != nil {
		fmt.Fprintf(&b, "; it read %v", *v.Write)
	}
	if v.Newer != nil {
		fmt.Fprintf(&b, "; overwritten by %v", *v.Newer)
	}
	return b.String()
}

// Check checks every key as a register and returns the violations,
// reads in invocation order.
func (h *History) Check() []Violation {
	ops := h.Ops()
	byKey := map[int][]Op{}
	for _, o := range ops {
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var out []Violation
	for _, k := range keys {
		out = append(out, h.checkKey(k, byKey[k])...)
	}
	return out
}

// checkKey applies the rule to one key's operations.
func (h *History) checkKey(key int, ops []Op) []Violation {
	writes := map[uint64]Op{}
	if v, ok := h.initial[key]; ok {
		// The initial value: acknowledged before anything began.
		writes[v] = Op{Client: -1, Kind: Write, Key: key, Value: v, Outcome: Ok}
	}
	// acked holds the acknowledged writes by response time, and
	// latestInvoke[i] the latest invocation among acked[:i+1]: a read
	// of w is stale when some write acknowledged before the read began
	// was invoked after w was acknowledged.
	var acked []Op
	for _, o := range ops {
		if o.Kind != Write {
			continue
		}
		if prev, dup := writes[o.Value]; dup {
			panic(fmt.Sprintf("history: key %d: value %#x written twice (%v and %v)", key, o.Value, prev, o))
		}
		writes[o.Value] = o
		if o.Outcome == Ok {
			acked = append(acked, o)
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].Response < acked[j].Response })
	latestInvoke := make([]int, len(acked)) // index into acked
	for i := range acked {
		latestInvoke[i] = i
		if i > 0 && acked[latestInvoke[i-1]].Invoke > acked[i].Invoke {
			latestInvoke[i] = latestInvoke[i-1]
		}
	}
	var out []Violation
	for _, r := range ops {
		if r.Kind != Read || r.Outcome != Ok {
			continue
		}
		w, ok := writes[r.Value]
		if !ok {
			out = append(out, Violation{Read: r, Why: "read a value no write wrote"})
			continue
		}
		if w.Invoke > r.Response {
			out = append(out, Violation{Read: r, Write: &w, Why: "read a write invoked after the read returned"})
			continue
		}
		if w.Outcome != Ok {
			// Indeterminate: it may have taken effect just now.
			continue
		}
		// The acknowledged writes that responded before the read began.
		before := sort.Search(len(acked), func(i int) bool { return acked[i].Response >= r.Invoke })
		if before == 0 {
			continue
		}
		if newer := acked[latestInvoke[before-1]]; newer.Invoke > w.Response {
			out = append(out, Violation{Read: r, Write: &w, Newer: &newer, Why: "stale read"})
		}
	}
	return out
}
