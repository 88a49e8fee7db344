// Package mj implements MiniJava, a small Java-like language that compiles
// to the bc bytecode: classes with single inheritance, instance and static
// fields, constructors, virtual methods, int/boolean/reference/array types,
// synchronized blocks, and the print/rand intrinsics. It exists so that
// the paper's examples (Listings 1–8) and the benchmark workloads can be
// written as source instead of hand-assembled bytecode.
package mj

import (
	"fmt"
	"slices"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokKeyword
	tokPunct
)

type token struct {
	kind tokenKind
	text string
	val  int64
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokInt:
		return fmt.Sprintf("%d", t.val)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var keywords = map[string]bool{
	"class": true, "extends": true, "static": true, "int": true,
	"boolean": true, "void": true, "if": true, "else": true,
	"while": true, "return": true, "new": true, "null": true,
	"true": true, "false": true, "this": true, "synchronized": true,
	"instanceof": true, "throw": true, "print": true, "rand": true,
	"for": true, "break": true, "continue": true,
	"try": true, "catch": true, "finally": true,
}

// Error is a positioned front-end error.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("mj:%d:%d: %s", e.Line, e.Col, e.Msg) }

func errf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans one token.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			line, col := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return token{}, errf(line, col, "unterminated block comment")
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: lx.line, col: lx.col}, nil

scan:
	line, col := lx.line, lx.col
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: line, col: col}, nil
	case isDigit(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		var v int64
		for _, d := range text {
			v = v*10 + int64(d-'0')
		}
		return token{kind: tokInt, text: text, val: v, line: line, col: col}, nil
	default:
		if op := punctuation(lx.src[lx.pos:]); op != "" {
			for range op {
				lx.advance()
			}
			return token{kind: tokPunct, text: op, line: line, col: col}, nil
		}
		return token{}, errf(line, col, "unexpected character %q", string(c))
	}
}

// punctuators lists, by first byte, the operator and punctuation tokens
// that start with it, longest first. The token text is the listed string
// itself, so scanning one allocates nothing.
var punctuators = func() (t [128][]string) {
	for _, op := range []string{
		">>>=", "<<=", ">>=", ">>>", "&&", "||", "==", "!=", "<=",
		">=", "<<", ">>", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
		"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
		"(", ")", "{", "}", "[", "]", ";", ",", ".", "~",
	} {
		t[op[0]] = append(t[op[0]], op)
	}
	for _, ops := range t {
		slices.SortStableFunc(ops, func(a, b string) int { return len(b) - len(a) })
	}
	return t
}()

// punctuation returns the longest operator or punctuation token src starts
// with, or "" if it starts with none.
func punctuation(src string) string {
	if src[0] >= 128 {
		return ""
	}
	for _, op := range punctuators[src[0]] {
		if strings.HasPrefix(src, op) {
			return op
		}
	}
	return ""
}

// lexAll tokenizes the whole source.
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var out []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
