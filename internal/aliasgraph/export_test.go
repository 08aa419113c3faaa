package aliasgraph

// NumOut returns the number of out-edges of n.
func NumOut(n *Node) int { return len(n.out) }

// LiveNodes returns the nodes of g that hold a variable or an out-edge.
func LiveNodes(g *Graph) []*Node {
	var live []*Node
	for _, n := range g.nodes {
		if len(n.vars) > 0 || len(n.out) > 0 {
			live = append(live, n)
		}
	}
	return live
}
