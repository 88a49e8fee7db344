// Package ir stubs the opcode enum whose switches must be exhaustive, and
// the graph.
package ir

type Op int

const (
	OpInvalid Op = iota
	OpA
	OpB
)

type Graph struct{}

func (g *Graph) ReplaceAllUsages(old, new int) {}
