// Package dscl implements a concrete syntax for the DAG
// Synchronization Constraint Language (§4.1, [21]) together with the
// surrounding process and dependency declarations a DSCWeaver input
// document needs. A .dscl document declares a process (activities and
// services), its four-dimension dependency catalog, and — optionally —
// raw DSCL constraints at activity-state granularity:
//
//	process Purchasing {
//	    service Purchase { ports 1, 2; async; sequential }
//
//	    activity recClient_po receive writes(po)
//	    activity invPurchase_po invoke Purchase.1 reads(po)
//	    activity if_au decision reads(au) branches(T, F)
//
//	    dependencies {
//	        data recClient_po -> invPurchase_po var(po)
//	        control if_au ->[T] invPurchase_po
//	        service invPurchase_po -> Purchase.1
//	        cooperation invShip_po -> replyClient_oi why("invoice last")
//	    }
//
//	    constraints {
//	        S(collectSurvey) -> F(closeOrder)
//	        a <-> b        // happen-together
//	        a >< b         // exclusive
//	    }
//	}
//
// Parse yields an AST; Build lowers it to core.Process,
// core.DependencySet and core.ConstraintSet; Print renders core
// objects back to canonical DSCL, and the round-trip is tested.
package dscl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString  // "…"
	tokLBrace  // {
	tokRBrace  // }
	tokLParen  // (
	tokRParen  // )
	tokLBrack  // [
	tokRBrack  // ]
	tokComma   // ,
	tokSemi    // ; or newline (statement separator)
	tokDot     // .
	tokArrow   // ->
	tokBiArrow // <->
	tokExcl    // ><
	tokEq      // =
)

var tokenNames = map[tokenKind]string{
	tokEOF: "end of input", tokIdent: "identifier", tokString: "string",
	tokLBrace: "'{'", tokRBrace: "'}'", tokLParen: "'('", tokRParen: "')'",
	tokLBrack: "'['", tokRBrack: "']'", tokComma: "','", tokSemi: "';'",
	tokDot: "'.'", tokArrow: "'->'", tokBiArrow: "'<->'", tokExcl: "'><'",
	tokEq: "'='",
}

func (k tokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexeme with its source position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// lexer scans DSCL source into tokens. Newlines become statement
// separators (tokSemi) so declarations need no trailing semicolons;
// consecutive separators collapse in the parser.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Error is a positioned syntax error.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("dscl:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	b := l.src[l.pos]
	l.pos++
	if b == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return b
}

func isIdentStart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b))
}

func isIdentPart(b byte) bool { return isIdentStart(b) }

// next returns the next token.
func (l *lexer) next() (token, error) {
	for {
		// Skip horizontal whitespace; newlines are significant.
		for l.pos < len(l.src) {
			b := l.peekByte()
			if b == ' ' || b == '\t' || b == '\r' {
				l.advance()
				continue
			}
			break
		}
		if l.pos >= len(l.src) {
			return token{kind: tokEOF, line: l.line, col: l.col}, nil
		}
		line, col := l.line, l.col
		b := l.peekByte()
		switch {
		case b == '\n':
			l.advance()
			return token{kind: tokSemi, text: "\\n", line: line, col: col}, nil
		case b == '/':
			if strings.HasPrefix(l.src[l.pos:], "//") {
				for l.pos < len(l.src) && l.peekByte() != '\n' {
					l.advance()
				}
				continue
			}
			if strings.HasPrefix(l.src[l.pos:], "/*") {
				l.advance()
				l.advance()
				closed := false
				for l.pos < len(l.src) {
					if strings.HasPrefix(l.src[l.pos:], "*/") {
						l.advance()
						l.advance()
						closed = true
						break
					}
					l.advance()
				}
				if !closed {
					return token{}, l.errf("unterminated block comment")
				}
				continue
			}
			return token{}, l.errf("unexpected character %q", b)
		case b == '"':
			l.advance()
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return token{}, l.errf("unterminated string")
				}
				c := l.advance()
				if c == '"' {
					break
				}
				if c == '\n' {
					return token{}, l.errf("newline in string")
				}
				if c == '\\' && l.pos < len(l.src) {
					c = l.advance()
					switch c {
					case 'n':
						c = '\n'
					case 't':
						c = '\t'
					}
				}
				sb.WriteByte(c)
			}
			return token{kind: tokString, text: sb.String(), line: line, col: col}, nil
		case b == '-':
			if strings.HasPrefix(l.src[l.pos:], "->") {
				l.advance()
				l.advance()
				return token{kind: tokArrow, text: "->", line: line, col: col}, nil
			}
			return token{}, l.errf("unexpected character %q (did you mean '->'?)", b)
		case b == '<':
			if strings.HasPrefix(l.src[l.pos:], "<->") {
				l.advance()
				l.advance()
				l.advance()
				return token{kind: tokBiArrow, text: "<->", line: line, col: col}, nil
			}
			return token{}, l.errf("unexpected character %q (did you mean '<->'?)", b)
		case b == '>':
			if strings.HasPrefix(l.src[l.pos:], "><") {
				l.advance()
				l.advance()
				return token{kind: tokExcl, text: "><", line: line, col: col}, nil
			}
			return token{}, l.errf("unexpected character %q (did you mean '><'?)", b)
		case b == '{':
			l.advance()
			return token{kind: tokLBrace, text: "{", line: line, col: col}, nil
		case b == '}':
			l.advance()
			return token{kind: tokRBrace, text: "}", line: line, col: col}, nil
		case b == '(':
			l.advance()
			return token{kind: tokLParen, text: "(", line: line, col: col}, nil
		case b == ')':
			l.advance()
			return token{kind: tokRParen, text: ")", line: line, col: col}, nil
		case b == '[':
			l.advance()
			return token{kind: tokLBrack, text: "[", line: line, col: col}, nil
		case b == ']':
			l.advance()
			return token{kind: tokRBrack, text: "]", line: line, col: col}, nil
		case b == ',':
			l.advance()
			return token{kind: tokComma, text: ",", line: line, col: col}, nil
		case b == ';':
			l.advance()
			return token{kind: tokSemi, text: ";", line: line, col: col}, nil
		case b == '.':
			l.advance()
			return token{kind: tokDot, text: ".", line: line, col: col}, nil
		case b == '=':
			l.advance()
			return token{kind: tokEq, text: "=", line: line, col: col}, nil
		case isIdentStart(b):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
				l.advance()
			}
			return token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col}, nil
		default:
			return token{}, l.errf("unexpected character %q", b)
		}
	}
}

// lexAll scans the whole input. DSCL runs about five source bytes to
// a token, so a quarter of the source length sizes the token slice in
// one allocation for ordinary input; denser input grows it by append.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	out := make([]token, 0, len(src)/4+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
