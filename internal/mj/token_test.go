package mj

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLexPunctuation: every operator lexes as one token, longest match
// first, whatever follows it.
func TestLexPunctuation(t *testing.T) {
	const src = ">>>= >>> >>= >> >= > <<= << <= < >>>>= a+++b !=! ==="
	want := []string{">>>=", ">>>", ">>=", ">>", ">=", ">", "<<=", "<<", "<=", "<", ">>>", ">=",
		"a", "++", "+", "b", "!=", "!", "==", "="}
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tok := range toks[:len(toks)-1] {
		got = append(got, tok.text)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tokens %q, want %q", got, want)
	}
}

// BenchmarkParse parses every frozen benchmark program.
func BenchmarkParse(b *testing.B) {
	files, err := filepath.Glob("../../benchmarks/programs/*.mj")
	if err != nil || len(files) == 0 {
		b.Fatalf("no benchmark programs (%v)", err)
	}
	var srcs []string
	size := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, string(src))
		size += len(src)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
