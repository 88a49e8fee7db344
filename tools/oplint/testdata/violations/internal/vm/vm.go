package vm

import (
	"pea/internal/broker"
	"pea/internal/ir"
	ring "pea/internal/obs/flight"
)

type Options struct {
	Store       string
	Flight      int
	InjectFault func(point, method string)
}

type VM struct{}

func (*VM) CompileOSR() {}

type CallHook = func()

var SubmitHooks, resolveHooks, JITWorkers, JITQueueCap int

var last ring.Record

func interpCallHook() {}

func dispatch(op ir.Op, engineInvoke func()) int {
	o := broker.Options{InjectFault: nil}
	_ = o
	switch op { // missing OpB
	case ir.OpA:
		return 1
	}
	return 0
}
