package graph

import "hyperline/internal/par"

// BuildSorted is the zero-copy fast path of Build for callers that
// guarantee the s-overlap stage's output invariants:
//
//   - every edge has U < V (no self-loops),
//   - edges are sorted by (U, V),
//   - (U, V) keys are unique (no duplicates to coalesce),
//   - all IDs are < numNodes.
//
// Under that contract no defensive copy, sort, or coalescing pass is
// needed: one serial pass counts degrees, the squeeze remap and CSR
// offsets are prefix sums over them, and one sequential scatter writes
// every row already sorted. The input slice is read but never modified,
// and the result is identical to Build(numNodes, edges, squeeze). The
// options are ignored; the build is serial.
//
// Callers that cannot vouch for the invariants must use Build, which
// keeps the defensive path.
func BuildSorted(numNodes int, edges []Edge, squeeze bool, _ par.Options) *Graph {
	g := &Graph{numEdges: len(edges)}
	deg := make([]int32, numNodes)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	var newID []int64
	if squeeze {
		newID = make([]int64, numNodes)
		var next int64
		for v := 0; v < numNodes; v++ {
			if deg[v] > 0 {
				newID[v] = next
				next++
			}
		}
		g.orig = make([]uint32, next)
		g.numNodes = int(next)
		for v := 0; v < numNodes; v++ {
			if deg[v] > 0 {
				g.orig[newID[v]] = uint32(v)
			}
		}
	} else {
		g.numNodes = numNodes
	}

	off := make([]int64, g.numNodes+1)
	if squeeze {
		for v := 0; v < numNodes; v++ {
			if deg[v] > 0 {
				off[newID[v]+1] = int64(deg[v])
			}
		}
	} else {
		for v := 0; v < numNodes; v++ {
			off[v+1] = int64(deg[v])
		}
	}
	for i := 0; i < g.numNodes; i++ {
		off[i+1] += off[i]
	}
	g.off = off

	g.adj = make([]uint32, 2*len(edges))
	g.wgt = make([]uint32, 2*len(edges))
	cursor := make([]int64, g.numNodes)
	copy(cursor, off[:g.numNodes])
	for _, e := range edges {
		u, v := int64(e.U), int64(e.V)
		if squeeze {
			u, v = newID[e.U], newID[e.V]
		}
		g.adj[cursor[u]], g.wgt[cursor[u]] = uint32(v), e.W
		cursor[u]++
		g.adj[cursor[v]], g.wgt[cursor[v]] = uint32(u), e.W
		cursor[v]++
	}
	// No row-sort pass: the sequential scatter leaves every row sorted
	// by construction. Row x receives its backward neighbors first —
	// edges (u, x) precede edges (x, v) in the (U, V)-sorted input
	// because u < x — in ascending u, then its forward neighbors in
	// ascending v, and u < x < v splices the two runs in order. The
	// squeeze remap preserves this (newID is monotone).
	return g
}
