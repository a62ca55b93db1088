package graph

import (
	"math/bits"
	"sort"
)

// SCCs returns the strongly connected components of the graph in
// reverse topological order (Tarjan's algorithm, iterative). Singleton
// components without a self-edge are trivial; the others are exactly
// the cycles a diagnostic should report. It is the independent oracle
// TestQuickSCCsAgreeWithFindCycle checks FindCycle against.
func (g *Digraph) SCCs() [][]int {
	const undef = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = undef
	}
	var stack []int
	var out [][]int
	next := 0

	type frame struct {
		v  int
		ci int // next child index
	}
	for root := 0; root < g.n; root++ {
		if index[root] != undef {
			continue
		}
		work := []frame{{v: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ci == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ci < len(g.succ[v]) {
				w := g.succ[v][f.ci]
				f.ci++
				if index[w] == undef {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v finished.
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				out = append(out, comp)
			}
		}
	}
	return out
}

// NontrivialSCCs returns only components that contain a cycle: size
// greater than one (self-loops are rejected at AddEdge).
func (g *Digraph) NontrivialSCCs() [][]int {
	var out [][]int
	for _, c := range g.SCCs() {
		if len(c) > 1 {
			out = append(out, c)
		}
	}
	return out
}

// Count returns the number of set bits; the closure and bitset tests
// size sets with it.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
