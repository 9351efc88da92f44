package trapezoid

// The quorum enumerations below are the property tests' oracles: they
// list every minimal quorum of a small layout explicitly.

// AllWriteQuorums enumerates every minimal write quorum (choosing
// exactly w_l positions at each level). Intended for property tests on
// small configurations; the count multiplies C(s_l, w_l) across levels.
func (lay *Layout) AllWriteQuorums() [][]int {
	perLevel := make([][][]int, lay.cfg.Shape.Levels())
	for l := range perLevel {
		perLevel[l] = combinations(lay.levels[l], lay.cfg.W[l])
	}
	var out [][]int
	var build func(l int, acc []int)
	build = func(l int, acc []int) {
		if l == len(perLevel) {
			out = append(out, append([]int(nil), acc...))
			return
		}
		for _, choice := range perLevel[l] {
			build(l+1, append(acc, choice...))
		}
	}
	build(0, nil)
	return out
}

// AllReadQuorums enumerates every minimal read quorum: for each level
// l, every choice of r_l positions from that level.
func (lay *Layout) AllReadQuorums() [][]int {
	var out [][]int
	for l := 0; l <= lay.cfg.Shape.H; l++ {
		out = append(out, combinations(lay.levels[l], lay.cfg.ReadThreshold(l))...)
	}
	return out
}

// combinations returns all size-r subsets of items, preserving order.
func combinations(items []int, r int) [][]int {
	if r > len(items) || r < 0 {
		return nil
	}
	var out [][]int
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	for {
		pick := make([]int, r)
		for i, j := range idx {
			pick[i] = items[j]
		}
		out = append(out, pick)
		i := r - 1
		for i >= 0 && idx[i] == len(items)-r+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}
