package bench

import "testing"

type program interface{ Source() string }

func measure(p program) string { return p.Source() }

func setupWorkload() {}

const kindRetired = 3

func BenchmarkTable1(b *testing.B)        {}
func BenchmarkTable1DaCapo(b *testing.B)  {}
func BenchmarkTable1Scala(b *testing.B)   {}
func BenchmarkTable1SpecJBB(b *testing.B) {}
