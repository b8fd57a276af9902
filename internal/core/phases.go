package core

import (
	"hotnoc/internal/geom"
)

// Transfer is one PE's state movement during a migration: the full
// configuration and state of the workload at Src is converted and sent to
// Dst (block indices, row-major).
type Transfer struct {
	Src, Dst int
}

// Phase is a set of transfers whose XY routes share no directed link, so
// they proceed concurrently without congesting one another. Executing a
// migration as a sequence of such phases gives the deterministic migration
// times the paper needs for real-time guarantees (§2.2).
type Phase []Transfer

// PlanPhases decomposes the permutation induced by a migration into
// congestion-free phases with a deterministic greedy algorithm: transfers
// are considered in ascending source-block order and each is placed into
// the earliest phase where its XY route conflicts with no already-placed
// route. Fixed points generate no transfer.
func PlanPhases(g geom.Grid, perm geom.Perm) []Phase {
	type linkSet map[link]struct{}
	var phases []Phase
	var used []linkSet

	for src := 0; src < perm.Len(); src++ {
		dst := perm.Dst(src)
		if dst == src {
			continue
		}
		route := xyRouteLinks(g, g.Coord(src), g.Coord(dst))
		placed := false
		for p := range phases {
			if !conflicts(used[p], route) {
				phases[p] = append(phases[p], Transfer{Src: src, Dst: dst})
				addLinks(used[p], route)
				placed = true
				break
			}
		}
		if !placed {
			ls := linkSet{}
			addLinks(ls, route)
			phases = append(phases, Phase{{Src: src, Dst: dst}})
			used = append(used, ls)
		}
	}
	return phases
}

// link is a directed mesh link between adjacent blocks.
type link struct {
	from, to int
}

// xyRouteLinks returns the directed links of the XY route from src to dst.
func xyRouteLinks(g geom.Grid, src, dst geom.Coord) []link {
	var links []link
	cur := src
	for cur.X != dst.X {
		next := cur
		if dst.X > cur.X {
			next.X++
		} else {
			next.X--
		}
		links = append(links, link{g.Index(cur), g.Index(next)})
		cur = next
	}
	for cur.Y != dst.Y {
		next := cur
		if dst.Y > cur.Y {
			next.Y++
		} else {
			next.Y--
		}
		links = append(links, link{g.Index(cur), g.Index(next)})
		cur = next
	}
	return links
}

func conflicts(used map[link]struct{}, route []link) bool {
	for _, l := range route {
		if _, ok := used[l]; ok {
			return true
		}
	}
	return false
}

func addLinks(used map[link]struct{}, route []link) {
	for _, l := range route {
		used[l] = struct{}{}
	}
}
