// Package workload synthesizes grove's experimental datasets and query
// workloads (paper §7.1). The paper builds graph records by running random
// walks over two base networks — the DIMACS New York road graph and the
// Gnutella-04 P2P snapshot — and draws query graphs uniformly or
// Zipf-distributed from the walk paths. Those exact files are not
// redistributable here, so this package generates structurally equivalent
// stand-ins: a grid-with-diagonals road network ("NY-like") and a
// preferential-attachment power-law network ("GNU-like"), then reproduces
// the walk-based record synthesis and the query draws.
//
// Records are kept acyclic by construction: every network carries a fixed
// topological orientation (edges point from lower to higher node index), so
// unions of walk paths are DAGs and path aggregation needs no flattening —
// mirroring the paper's observation that sequencing is usually already
// encoded in the trace data (§6.2).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Network is a base graph whose forward (index-increasing) edges form the
// universe of edge ids that records and queries draw from.
type Network struct {
	Name string
	// adj[i] lists the forward neighbours of node i (all > i).
	adj      [][]int32
	numEdges int
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.adj) }

// NumEdges returns the directed forward-edge count — the edge-domain size of
// datasets built over this network.
func (n *Network) NumEdges() int { return n.numEdges }

// NodeName renders the universal identifier of node i.
func (n *Network) NodeName(i int32) string { return fmt.Sprintf("n%d", i) }

// Successors returns the forward neighbours of node i.
func (n *Network) Successors(i int32) []int32 { return n.adj[i] }

func (n *Network) addEdge(a, b int32) {
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	for _, x := range n.adj[a] {
		if x == b {
			return
		}
	}
	n.adj[a] = append(n.adj[a], b)
	n.numEdges++
}

// NewRoadNetwork builds the NY-like road network: a near-square grid with
// street and avenue segments plus occasional diagonal shortcuts, sized so
// the forward-edge count is close to targetEdges (the experiments' edge
// domain; 1000 by default, up to 100K in the Fig. 5 sweep).
func NewRoadNetwork(targetEdges int) *Network {
	if targetEdges < 4 {
		targetEdges = 4
	}
	// A r×c grid has ~2rc forward edges (plus ~rc/8 diagonals).
	side := int(math.Sqrt(float64(targetEdges) / 2.1))
	if side < 2 {
		side = 2
	}
	rows, cols := side, side
	n := &Network{Name: "NY-like road grid"}
	n.adj = make([][]int32, rows*cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				n.addEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				n.addEdge(id(r, c), id(r+1, c))
			}
			// Sparse diagonals model highway shortcuts.
			if r+1 < rows && c+1 < cols && (r+c)%8 == 0 {
				n.addEdge(id(r, c), id(r+1, c+1))
			}
		}
	}
	return n
}

// NewP2PNetwork builds the GNU-like peer-to-peer network by preferential
// attachment: each new node links to m existing nodes chosen proportionally
// to their degree, yielding the power-law degree distribution of Gnutella
// snapshots. Deterministic for a given seed.
func NewP2PNetwork(targetEdges int, seed int64) *Network {
	const m = 3
	numNodes := targetEdges/m + m + 1
	rng := rand.New(rand.NewSource(seed))
	n := &Network{Name: "GNU-like P2P network"}
	n.adj = make([][]int32, numNodes)
	// Repeated-endpoint list implements preferential attachment.
	var endpoints []int32
	attached := make([]int32, 0, m) // in the order drawn, so the wiring is a function of the seed
	for v := int32(1); v < int32(numNodes); v++ {
		attached = attached[:0]
		for len(attached) < m && len(attached) < int(v) {
			var target int32
			if len(endpoints) == 0 || rng.Intn(4) == 0 {
				target = int32(rng.Intn(int(v)))
			} else {
				target = endpoints[rng.Intn(len(endpoints))]
			}
			if target != v && !slices.Contains(attached, target) {
				attached = append(attached, target)
			}
		}
		for _, t := range attached {
			n.addEdge(t, v)
			endpoints = append(endpoints, t, v)
		}
	}
	return n
}

// RandomWalk performs one self-avoiding forward walk of at most maxLen edges
// starting from a random node, returning the visited node sequence
// (≥ 2 nodes, or nil when the start is a sink). Forward orientation makes
// every walk a simple path.
func (n *Network) RandomWalk(rng *rand.Rand, maxLen int) []int32 {
	if len(n.adj) == 0 {
		return nil
	}
	// Bias starts away from the highest-index nodes, which have few or no
	// forward neighbours.
	start := int32(rng.Intn(len(n.adj)))
	if len(n.adj[start]) == 0 {
		start = int32(rng.Intn(len(n.adj) * 3 / 4)) // retry in the denser region
	}
	walk := []int32{start}
	cur := start
	for len(walk) <= maxLen {
		next := n.adj[cur]
		if len(next) == 0 {
			break
		}
		cur = next[rng.Intn(len(next))]
		walk = append(walk, cur)
	}
	if len(walk) < 2 {
		return nil
	}
	return walk
}
