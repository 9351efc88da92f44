package trapezoid

import "fmt"

// Layout maps abstract trapezoid positions to the levels of a concrete
// shape. Positions are numbered 0..NbNodes()-1 in level order: position
// 0 is the first slot of level 0 (where the ERC instantiation places
// the node holding the original data block), followed by the rest of
// level 0, then level 1, and so on.
type Layout struct {
	cfg    Config
	levels [][]int // levels[l] lists the positions residing at level l
	level  []int   // level[pos] is the level of a position
}

// NewLayout materialises the position/level mapping of a configuration.
func NewLayout(cfg Config) (*Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay := &Layout{
		cfg:    cfg,
		levels: make([][]int, cfg.Shape.Levels()),
		level:  make([]int, cfg.Shape.NbNodes()),
	}
	pos := 0
	for l := 0; l <= cfg.Shape.H; l++ {
		size := cfg.Shape.LevelSize(l)
		lay.levels[l] = make([]int, size)
		for i := 0; i < size; i++ {
			lay.levels[l][i] = pos
			lay.level[pos] = l
			pos++
		}
	}
	return lay, nil
}

// Config returns the configuration the layout was built from.
func (lay *Layout) Config() Config { return lay.cfg }

// NbNodes returns the total number of positions.
func (lay *Layout) NbNodes() int { return len(lay.level) }

// Level returns the positions residing at level l, in order. The
// returned slice must not be modified.
func (lay *Layout) Level(l int) []int {
	if l < 0 || l >= len(lay.levels) {
		panic(fmt.Sprintf("trapezoid: level %d out of [0,%d]", l, len(lay.levels)-1))
	}
	return lay.levels[l]
}

// LevelOf returns the level that position pos resides at.
func (lay *Layout) LevelOf(pos int) int {
	if pos < 0 || pos >= len(lay.level) {
		panic(fmt.Sprintf("trapezoid: position %d out of [0,%d)", pos, len(lay.level)))
	}
	return lay.level[pos]
}

// WriteQuorum greedily assembles a write quorum from the available
// positions: the first w_l available positions of each level. It
// returns the chosen positions and true, or nil and false when some
// level has fewer than w_l positions available — exactly the failure
// condition of Algorithm 1 lines 35–37.
func (lay *Layout) WriteQuorum(available func(pos int) bool) ([]int, bool) {
	var quorum []int
	for l := 0; l <= lay.cfg.Shape.H; l++ {
		picked := 0
		for _, pos := range lay.levels[l] {
			if picked == lay.cfg.W[l] {
				break
			}
			if available(pos) {
				quorum = append(quorum, pos)
				picked++
			}
		}
		if picked < lay.cfg.W[l] {
			return nil, false
		}
	}
	return quorum, true
}

// ReadQuorumAtLevel assembles a version-check quorum at level l: the
// first r_l = s_l − w_l + 1 available positions of that level. It
// returns nil, false when the level cannot muster r_l nodes.
func (lay *Layout) ReadQuorumAtLevel(l int, available func(pos int) bool) ([]int, bool) {
	need := lay.cfg.ReadThreshold(l)
	var quorum []int
	for _, pos := range lay.levels[l] {
		if len(quorum) == need {
			break
		}
		if available(pos) {
			quorum = append(quorum, pos)
		}
	}
	if len(quorum) < need {
		return nil, false
	}
	return quorum, true
}

// ReadQuorum scans levels 0..h in order (as Algorithm 2 does) and
// returns the first level that can muster its read threshold, along
// with the chosen positions. ok is false when no level can.
func (lay *Layout) ReadQuorum(available func(pos int) bool) (level int, quorum []int, ok bool) {
	for l := 0; l <= lay.cfg.Shape.H; l++ {
		if q, got := lay.ReadQuorumAtLevel(l, available); got {
			return l, q, true
		}
	}
	return 0, nil, false
}

// EnumerateShapes lists every shape (a, b, h) whose trapezoid holds
// exactly nbNodes positions, with h ≤ maxH. Used by the design-space
// sweep to find trapezoids matching a given n−k+1.
func EnumerateShapes(nbNodes, maxH int) []Shape {
	var out []Shape
	for h := 0; h <= maxH; h++ {
		levels := h + 1
		// Σ (a·l + b) = a·h(h+1)/2 + b·(h+1) = nbNodes
		tri := h * (h + 1) / 2
		for a := 0; ; a++ {
			rem := nbNodes - a*tri
			if rem < levels { // b would drop below 1
				break
			}
			if rem%levels == 0 {
				b := rem / levels
				s := Shape{A: a, B: b, H: h}
				if s.Validate() == nil && s.NbNodes() == nbNodes {
					out = append(out, s)
				}
			}
			if tri == 0 { // h = 0: only a = 0 distinguishes shapes
				break
			}
		}
	}
	return out
}
