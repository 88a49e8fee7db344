// Package ir stubs the opcode enum whose switches must be exhaustive.
package ir

type Op int

const (
	OpInvalid Op = iota
	OpA
	OpB
)
