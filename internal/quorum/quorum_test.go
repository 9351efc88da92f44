package quorum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trapquorum/internal/trapezoid"
)

// ExactWriteAvailability computes write availability by enumerating
// all 2^Size() node states and asking the constructive side: the
// reference the analytic side is checked against (Size ≤ 24).
func ExactWriteAvailability(s System, p float64) float64 {
	return exactAvailability(s.Size(), p, func(av func(int) bool) bool {
		_, ok := s.WriteQuorum(av)
		return ok
	})
}

// ExactReadAvailability is the read-side analogue of
// ExactWriteAvailability.
func ExactReadAvailability(s System, p float64) float64 {
	return exactAvailability(s.Size(), p, func(av func(int) bool) bool {
		_, ok := s.ReadQuorum(av)
		return ok
	})
}

func exactAvailability(n int, p float64, ok func(func(int) bool) bool) float64 {
	if n > 24 {
		panic(fmt.Sprintf("quorum: exact enumeration over %d nodes is too large", n))
	}
	total := 0.0
	for state := 0; state < 1<<uint(n); state++ {
		prob := 1.0
		for i := 0; i < n; i++ {
			if state&(1<<uint(i)) != 0 {
				prob *= p
			} else {
				prob *= 1 - p
			}
		}
		if prob == 0 {
			continue
		}
		if ok(func(i int) bool { return state&(1<<uint(i)) != 0 }) {
			total += prob
		}
	}
	return total
}

// Intersects reports whether two node sets share an element.
func Intersects(a, b []int) bool {
	set := make(map[int]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	for _, y := range b {
		if _, hit := set[y]; hit {
			return true
		}
	}
	return false
}

// systemsUnderTest returns one small instance of every System, sized
// for exhaustive 2^n enumeration.
func systemsUnderTest(t *testing.T) []System {
	t.Helper()
	rowa, err := NewROWA(5)
	if err != nil {
		t.Fatal(err)
	}
	maj, err := NewMajority(9)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGrid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewTree(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	trap, err := NewTrapezoidFR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []System{rowa, maj, grid, tree, trap}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewROWA(0); err == nil {
		t.Error("ROWA(0) accepted")
	}
	if _, err := NewMajority(-1); err == nil {
		t.Error("Majority(-1) accepted")
	}
	if _, err := NewGrid(0, 3); err == nil {
		t.Error("Grid(0,3) accepted")
	}
	if _, err := NewGrid(3, 0); err == nil {
		t.Error("Grid(3,0) accepted")
	}
	if _, err := NewTree(-1, 2); err == nil {
		t.Error("Tree(-1,2) accepted")
	}
	if _, err := NewTree(2, 1); err == nil {
		t.Error("Tree(2,1) accepted")
	}
	badCfg := trapezoid.Config{Shape: trapezoid.Shape{A: -1, B: 1, H: 0}, W: []int{1}}
	if _, err := NewTrapezoidFR(badCfg); err == nil {
		t.Error("bad trapezoid accepted")
	}
}

func TestSizes(t *testing.T) {
	want := map[string]int{
		"ROWA(n=5)":              5,
		"Majority(n=9)":          9,
		"Grid(3x4)":              12,
		"Tree(h=2,d=2)":          7,
		"Trapezoid(a=2 b=3 h=1)": 8,
	}
	for _, s := range systemsUnderTest(t) {
		if got := s.Size(); got != want[s.Name()] {
			t.Errorf("%s: Size = %d, want %d", s.Name(), got, want[s.Name()])
		}
	}
}

// TestAnalyticMatchesExact cross-checks every closed-form availability
// against exhaustive enumeration of the constructive quorum functions.
func TestAnalyticMatchesExact(t *testing.T) {
	for _, s := range systemsUnderTest(t) {
		for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			gotW := s.WriteAvailability(p)
			wantW := ExactWriteAvailability(s, p)
			if math.Abs(gotW-wantW) > 1e-9 {
				t.Errorf("%s p=%v: write analytic %v != exact %v", s.Name(), p, gotW, wantW)
			}
			gotR := s.ReadAvailability(p)
			wantR := ExactReadAvailability(s, p)
			if math.Abs(gotR-wantR) > 1e-9 {
				t.Errorf("%s p=%v: read analytic %v != exact %v", s.Name(), p, gotR, wantR)
			}
		}
	}
}

// TestQuorumIntersectionRandomised drives each system with random
// availability masks and checks the two safety conditions: RQ ∩ WQ ≠ ∅
// (equation 2) and WQ1 ∩ WQ2 ≠ ∅ (equation 3).
func TestQuorumIntersectionRandomised(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, s := range systemsUnderTest(t) {
		n := s.Size()
		for trial := 0; trial < 3000; trial++ {
			mask1 := make([]bool, n)
			mask2 := make([]bool, n)
			for i := range mask1 {
				mask1[i] = r.Float64() < 0.75
				mask2[i] = r.Float64() < 0.75
			}
			w1, ok1 := s.WriteQuorum(func(i int) bool { return mask1[i] })
			w2, ok2 := s.WriteQuorum(func(i int) bool { return mask2[i] })
			if ok1 && ok2 && !Intersects(w1, w2) {
				t.Fatalf("%s: write quorums %v / %v disjoint", s.Name(), w1, w2)
			}
			rq, okR := s.ReadQuorum(func(i int) bool { return mask2[i] })
			if ok1 && okR && !Intersects(rq, w1) {
				t.Fatalf("%s: read quorum %v misses write quorum %v", s.Name(), rq, w1)
			}
		}
	}
}

// TestQuorumMembersAreAvailable ensures the constructive side never
// returns a node the availability mask rejected.
func TestQuorumMembersAreAvailable(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, s := range systemsUnderTest(t) {
		n := s.Size()
		for trial := 0; trial < 500; trial++ {
			mask := make([]bool, n)
			for i := range mask {
				mask[i] = r.Float64() < 0.8
			}
			av := func(i int) bool { return mask[i] }
			if q, ok := s.WriteQuorum(av); ok {
				for _, node := range q {
					if !mask[node] {
						t.Fatalf("%s: write quorum contains down node %d", s.Name(), node)
					}
				}
			}
			if q, ok := s.ReadQuorum(av); ok {
				for _, node := range q {
					if !mask[node] {
						t.Fatalf("%s: read quorum contains down node %d", s.Name(), node)
					}
				}
			}
		}
	}
}

func allNodesUp(int) bool { return true }

func TestROWASemantics(t *testing.T) {
	rowa, _ := NewROWA(4)
	q, ok := rowa.WriteQuorum(allNodesUp)
	if !ok || len(q) != 4 {
		t.Fatalf("write quorum = %v, %v", q, ok)
	}
	if _, ok := rowa.WriteQuorum(func(i int) bool { return i != 2 }); ok {
		t.Fatal("ROWA wrote with a node down")
	}
	q, ok = rowa.ReadQuorum(func(i int) bool { return i == 3 })
	if !ok || len(q) != 1 || q[0] != 3 {
		t.Fatalf("read quorum = %v, %v", q, ok)
	}
}

func TestMajoritySemantics(t *testing.T) {
	maj, _ := NewMajority(5)
	if maj.Threshold() != 3 {
		t.Fatalf("threshold = %d", maj.Threshold())
	}
	if _, ok := maj.WriteQuorum(func(i int) bool { return i < 2 }); ok {
		t.Fatal("2 of 5 formed a majority")
	}
	q, ok := maj.WriteQuorum(func(i int) bool { return i < 3 })
	if !ok || len(q) != 3 {
		t.Fatalf("quorum = %v, %v", q, ok)
	}
}

func TestGridSemantics(t *testing.T) {
	g, _ := NewGrid(2, 3)
	// Down the whole first column: reads fail, writes fail.
	colDown := func(i int) bool { return i%3 != 0 }
	if _, ok := g.ReadQuorum(colDown); ok {
		t.Fatal("read succeeded with an empty column")
	}
	if _, ok := g.WriteQuorum(colDown); ok {
		t.Fatal("write succeeded with an empty column")
	}
	// One node down: writes should still find a full column.
	oneDown := func(i int) bool { return i != 4 }
	q, ok := g.WriteQuorum(oneDown)
	if !ok {
		t.Fatal("write failed with a single node down")
	}
	if len(q) != 2+2 { // full column (2 rows) + cover of other 2 columns
		t.Fatalf("|WQ| = %d, want 4", len(q))
	}
}

func TestTreeSemantics(t *testing.T) {
	tr, _ := NewTree(2, 2) // 7 nodes, root 0, children 1,2, leaves 3..6
	// All up: quorum is a root-to-leaf path of 3 nodes.
	q, ok := tr.WriteQuorum(allNodesUp)
	if !ok || len(q) != 3 {
		t.Fatalf("quorum = %v, %v, want a 3-node path", q, ok)
	}
	// Root down: need quorums in both subtrees.
	rootDown := func(i int) bool { return i != 0 }
	q, ok = tr.WriteQuorum(rootDown)
	if !ok {
		t.Fatal("no quorum with root down")
	}
	if len(q) != 4 { // two 2-node paths
		t.Fatalf("|WQ| = %d, want 4", len(q))
	}
	// Root down and left subtree root down: left needs both leaves.
	twoDown := func(i int) bool { return i != 0 && i != 1 }
	if q, ok = tr.WriteQuorum(twoDown); !ok {
		t.Fatalf("no quorum with root and one internal down")
	} else if len(q) != 4 {
		t.Fatalf("|WQ| = %d, want 4 (both left leaves + right 2-node path)", len(q))
	}
	// Everything except leaves down: quorum is all leaves.
	leavesOnly := func(i int) bool { return i >= 3 }
	if q, ok = tr.WriteQuorum(leavesOnly); !ok || len(q) != 4 {
		t.Fatalf("leaves-only quorum = %v, %v", q, ok)
	}
}

func TestTreeSizeFormula(t *testing.T) {
	cases := []struct{ h, d, want int }{
		{0, 2, 1}, {1, 2, 3}, {2, 2, 7}, {3, 2, 15}, {1, 3, 4}, {2, 3, 13},
	}
	for _, c := range cases {
		tr, err := NewTree(c.h, c.d)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Size() != c.want {
			t.Errorf("Tree(h=%d,d=%d).Size = %d, want %d", c.h, c.d, tr.Size(), c.want)
		}
	}
}

// TestROWATradeoffShape documents the textbook tradeoff the paper
// recalls: ROWA has the best reads and the worst writes.
func TestROWATradeoffShape(t *testing.T) {
	rowa, _ := NewROWA(9)
	maj, _ := NewMajority(9)
	for _, p := range []float64{0.5, 0.7, 0.9} {
		if rowa.ReadAvailability(p) < maj.ReadAvailability(p) {
			t.Errorf("p=%v: ROWA reads below majority", p)
		}
		if rowa.WriteAvailability(p) > maj.WriteAvailability(p) {
			t.Errorf("p=%v: ROWA writes above majority", p)
		}
	}
}

func TestIntersectsHelper(t *testing.T) {
	if Intersects([]int{1, 2}, []int{3, 4}) {
		t.Fatal("disjoint sets reported intersecting")
	}
	if !Intersects([]int{1, 2}, []int{2, 9}) {
		t.Fatal("overlap missed")
	}
	if Intersects(nil, []int{1}) {
		t.Fatal("nil set intersects")
	}
}

func TestExactEnumerationGuard(t *testing.T) {
	big, _ := NewMajority(25)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized enumeration")
		}
	}()
	ExactWriteAvailability(big, 0.5)
}

func BenchmarkTreeQuorum(b *testing.B) {
	tr, _ := NewTree(3, 2)
	avail := func(i int) bool { return i%7 != 0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.WriteQuorum(avail)
	}
}

func BenchmarkGridQuorum(b *testing.B) {
	g, _ := NewGrid(4, 4)
	avail := func(i int) bool { return i%5 != 0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.WriteQuorum(avail)
	}
}
