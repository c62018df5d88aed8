package pstoken

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
)

// maxGroupDepth bounds the group-nesting stack. The lexer itself is
// iterative, so this guards memory rather than the call stack, and is
// set above the parser's recursion limit so the parser's depth error is
// the one surfaced for inputs both could reject.
const maxGroupDepth = 100_000

// lexState tracks the parsing mode, which PowerShell needs because bare
// words mean different things in command, argument and expression
// positions.
type lexState int

const (
	// sStmtStart expects the start of a statement or pipeline element.
	sStmtStart lexState = iota
	// sCmdName expects a command name after a call operator (& or .).
	sCmdName
	// sArgs is inside a command's argument list.
	sArgs
	// sExpr expects an expression operand.
	sExpr
	// sPostfix follows a complete operand; operators are expected.
	sPostfix
	// sHash expects a hashtable key.
	sHash
	// sMember expects a member name after . or ::.
	sMember
	// sFunctionName expects the name in a function definition.
	sFunctionName
)

type containerKind int

const (
	cParen containerKind = iota
	cSubExpr
	cArraySub
	cBrace
	cHash
	cIndex
)

type frame struct {
	kind containerKind
	ret  lexState
}

type lexer struct {
	src       string
	pos       int
	line      int
	toks      []Token
	state     lexState
	stack     []frame
	afterPipe bool
	lastEnd   int
	lastType  Type
	err       *Error
}

// MaxSourceLen is the largest source Tokenize accepts: token offsets
// are int32. Larger sources fail with an *Error that unwraps to
// limits.ErrInputBudget.
const MaxSourceLen = math.MaxInt32

// maxFreeLen caps the capacity a recycled lexer keeps of its token and
// group-stack buffers (1 MiB of tokens), so one huge or deeply nested
// script does not pin its scratch for the life of the process.
const maxFreeLen = 1 << 15

// freeLexers holds lexers for reuse, at most one per processor (and at
// most eight). Tokens are lexed into a recycled lexer's scratch slice
// and copied out at their exact count, so a returned stream carries no
// spare capacity however the source's bytes split into tokens: a
// base64 blob is one token, whatever its length. Unlike a sync.Pool,
// the list survives garbage collection, so what a Tokenize call
// allocates does not depend on when the collector last ran.
var freeLexers = make(chan *lexer, min(runtime.GOMAXPROCS(0), 8))

// tokenizeCalls counts Tokenize invocations since process start, the
// lexing twin of psparser.ParseCalls.
var tokenizeCalls atomic.Int64

// TokenizeCalls returns the number of Tokenize invocations performed by
// this process so far. Deltas around a region of work measure how many
// times it lexed.
func TokenizeCalls() int64 { return tokenizeCalls.Load() }

// Tokenize splits a PowerShell script into tokens. On a lexical error it
// returns the tokens recognized so far together with the error. Internal
// panics are converted to a *limits.PanicError rather than crashing the
// caller.
func Tokenize(src string) (toks []Token, err error) {
	defer limits.Recover("pstoken.Tokenize", &err)
	tokenizeCalls.Add(1)
	if err := checkSize(len(src)); err != nil {
		return nil, err
	}
	var l *lexer
	select {
	case l = <-freeLexers:
	default:
		l = new(lexer)
	}
	*l = lexer{src: src, line: 1, state: sStmtStart, lastEnd: -1, toks: l.toks[:0], stack: l.stack[:0]}
	l.run()
	if len(l.toks) > 0 {
		toks = make([]Token, len(l.toks))
		copy(toks, l.toks)
	}
	lexErr := l.err
	l.release()
	if lexErr != nil {
		return toks, lexErr
	}
	return toks, nil
}

// checkSize rejects a source whose offsets would not fit a Token.
func checkSize(n int) *Error {
	if n <= MaxSourceLen {
		return nil
	}
	return &Error{Pos: 0, Line: 1, Msg: fmt.Sprintf("source of %d bytes exceeds the %d-byte lexer limit", n, MaxSourceLen), Limit: limits.ErrInputBudget}
}

// release returns the lexer to the free list, dropping its references
// to the source and to token contents.
func (l *lexer) release() {
	clear(l.toks)
	if cap(l.toks) > maxFreeLen {
		l.toks = nil
	}
	if cap(l.stack) > maxFreeLen {
		l.stack = nil
	}
	*l = lexer{toks: l.toks[:0], stack: l.stack[:0]}
	select {
	case freeLexers <- l:
	default:
	}
}

func (l *lexer) fail(pos int, msg string) {
	if l.err == nil {
		l.err = &Error{Pos: pos, Line: l.line, Msg: msg}
	}
	l.pos = len(l.src)
}

func (l *lexer) runeAt(pos int) (rune, int) {
	if pos >= len(l.src) {
		return 0, 0
	}
	b := l.src[pos]
	if b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(l.src[pos:])
}

func (l *lexer) peek(off int) rune {
	p := l.pos
	for i := 0; i <= off; i++ {
		r, size := l.runeAt(p)
		if size == 0 {
			return 0
		}
		if i == off {
			return r
		}
		p += size
	}
	return 0
}

// emit records a token spanning [start, l.pos).
func (l *lexer) emit(t Type, start int, content string) {
	l.emitKind(t, start, content, BareWord, false)
}

func (l *lexer) emitKind(t Type, start int, content string, kind StringKind, hadTicks bool) {
	l.toks = append(l.toks, Token{
		Content:  content,
		Start:    int32(start),
		Length:   int32(l.pos - start),
		Line:     int32(l.line),
		Type:     t,
		Kind:     kind,
		HadTicks: hadTicks,
	})
	if t != Comment && t != NewLine && t != LineContinuation {
		l.lastEnd = l.pos
		l.lastType = t
		if t != Operator || (content != "|" && content != ";") {
			l.afterPipe = false
		}
	}
	// Keep line counting correct for multi-line tokens.
	l.line += strings.Count(l.src[start:l.pos], "\n")
}

// attached reports whether the current position immediately follows the
// previous significant token with no intervening whitespace.
func (l *lexer) attached() bool { return l.pos == l.lastEnd }

// afterOperand returns the state to enter after a complete operand.
func (l *lexer) afterOperand() lexState {
	switch l.state {
	case sArgs, sCmdName:
		return sArgs
	case sHash:
		return sHash
	default:
		return sPostfix
	}
}

// afterSeparator returns the state after ; or a newline.
func (l *lexer) afterSeparator() lexState {
	if n := len(l.stack); n > 0 && l.stack[n-1].kind == cHash {
		return sHash
	}
	return sStmtStart
}

func (l *lexer) pushGroup(kind containerKind, start int, text string, inner lexState) {
	if len(l.stack) >= maxGroupDepth {
		if l.err == nil {
			l.err = &Error{Pos: start, Line: l.line, Msg: "group nesting depth limit exceeded", Limit: limits.ErrParseDepth}
		}
		l.pos = len(l.src)
		return
	}
	l.stack = append(l.stack, frame{kind: kind, ret: l.afterOperand()})
	l.pos = start + len(text)
	l.emit(GroupStart, start, text)
	l.state = inner
}

func (l *lexer) popGroup(start int, text string, want ...containerKind) {
	matched := false
	if n := len(l.stack); n > 0 {
		for _, k := range want {
			if l.stack[n-1].kind == k {
				matched = true
				break
			}
		}
		if matched {
			l.state = l.stack[n-1].ret
			l.stack = l.stack[:n-1]
		}
	}
	if !matched {
		l.state = sPostfix
	}
	l.pos = start + len(text)
	l.emit(GroupEnd, start, text)
}

func (l *lexer) run() {
	for l.pos < len(l.src) && l.err == nil {
		start := l.pos
		r, size := l.runeAt(l.pos)
		switch {
		case isSpace(r):
			l.pos += size
		case r == '\r' || r == '\n':
			l.lexNewline(start)
		case r == '`':
			l.lexBacktick(start)
		case r == '#':
			l.lexLineComment(start)
		case r == '<' && l.peek(1) == '#':
			l.lexBlockComment(start)
		case r == '\'':
			l.lexSingleQuoted(start)
		case r == '"':
			l.lexDoubleQuoted(start)
		case r == '@':
			l.lexAt(start)
		case r == '$':
			l.lexDollar(start)
		case r == '(':
			l.pushGroup(cParen, start, "(", sStmtStart)
		case r == ')':
			l.popGroup(start, ")", cParen, cSubExpr, cArraySub)
		case r == '{':
			l.pushGroup(cBrace, start, "{", sStmtStart)
		case r == '}':
			l.popGroup(start, "}", cBrace, cHash)
		case r == '[':
			l.lexOpenBracket(start)
		case r == ']':
			l.popGroup(start, "]", cIndex)
		case r == ';':
			l.pos += size
			l.emit(StatementSeparator, start, ";")
			l.state = l.afterSeparator()
		case r == '|':
			l.pos += size
			if l.peek(0) == '|' {
				l.pos++
				l.emit(Operator, start, "||")
			} else {
				l.emit(Operator, start, "|")
			}
			l.state = sStmtStart
			l.afterPipe = true
		case r == '&':
			l.pos += size
			if l.peek(0) == '&' {
				l.pos++
				l.emit(Operator, start, "&&")
				l.state = sStmtStart
			} else {
				l.emit(Operator, start, "&")
				l.state = sCmdName
			}
		case r == ',':
			l.pos += size
			l.emit(Operator, start, ",")
			if l.state == sArgs {
				// stay in argument mode
			} else {
				l.state = sExpr
			}
		case r == ':':
			l.lexColon(start)
		case r == '.':
			l.lexDot(start)
		case r == '-':
			l.lexDash(start)
		case r == '+' || r == '*' || r == '/' || r == '%' || r == '!' || r == '=' || r == '>' || r == '<':
			l.lexSimpleOperator(start, r)
		case r >= '0' && r <= '9':
			l.lexNumberOrWord(start)
		case isWordStart(r):
			l.lexWord(start)
		default:
			l.pos += size
			l.emit(Unknown, start, string(r))
		}
	}
	if l.err == nil {
		if n := len(l.stack); n > 0 {
			l.err = &Error{Pos: len(l.src), Line: l.line, Msg: "unclosed group"}
		}
	}
}

func (l *lexer) lexNewline(start int) {
	if l.src[l.pos] == '\r' {
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '\n' {
			l.pos++
		}
	} else {
		l.pos++
	}
	l.emit(NewLine, start, "\n")
	l.state = l.afterSeparator()
}

func (l *lexer) lexBacktick(start int) {
	next := l.peek(1)
	if next == '\r' || next == '\n' {
		l.pos++ // backtick
		if l.src[l.pos] == '\r' {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] == '\n' {
			l.pos++
		}
		l.emit(LineContinuation, start, "`")
		return
	}
	if next == 0 {
		l.pos++
		l.emit(Unknown, start, "`")
		return
	}
	// A backtick can start a ticked bare word, e.g. `i`e`x.
	switch l.state {
	case sStmtStart, sCmdName, sArgs, sFunctionName, sHash:
		l.lexWord(start)
	case sMember:
		l.lexWord(start)
	default:
		// Escaped character in expression position: treat as word.
		l.lexWord(start)
	}
}

func (l *lexer) lexLineComment(start int) {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' && l.src[l.pos] != '\r' {
		l.pos++
	}
	l.emit(Comment, start, l.src[start:l.pos])
}

func (l *lexer) lexBlockComment(start int) {
	end := strings.Index(l.src[l.pos:], "#>")
	if end < 0 {
		l.fail(start, "unterminated block comment")
		return
	}
	l.pos += end + 2
	l.emit(Comment, start, l.src[start:l.pos])
}

func (l *lexer) lexSingleQuoted(start int) {
	l.pos++ // opening quote
	// Scan by byte: the only special character is the quote itself,
	// which is ASCII and therefore can never be a UTF-8 continuation
	// byte. Content is a zero-copy slice of the source unless an
	// escaped quote ('') forces a rebuild, and even then verbatim
	// spans are appended chunk-wise rather than rune-by-rune.
	var sb strings.Builder
	chunk := l.pos
	for l.pos < len(l.src) {
		i := strings.IndexByte(l.src[l.pos:], '\'')
		if i < 0 {
			break
		}
		q := l.pos + i
		if q+1 < len(l.src) && l.src[q+1] == '\'' {
			sb.WriteString(l.src[chunk:q])
			sb.WriteByte('\'')
			l.pos = q + 2
			chunk = l.pos
			continue
		}
		var content string
		if sb.Len() == 0 {
			content = l.src[chunk:q]
		} else {
			sb.WriteString(l.src[chunk:q])
			content = sb.String()
		}
		l.pos = q + 1
		l.emitKind(String, start, content, SingleQuoted, false)
		l.state = l.afterOperand()
		return
	}
	l.pos = len(l.src)
	l.fail(start, "unterminated single-quoted string")
}

func (l *lexer) lexDoubleQuoted(start int) {
	l.pos++ // opening quote
	// Content diverges from the raw source only on escaped quotes ("")
	// and backtick escapes; embedded $( ) subexpressions are copied
	// verbatim. So scan by byte for the three ASCII special characters
	// (safe: they are never UTF-8 continuation bytes), keep a pending
	// verbatim chunk, and materialize a builder only on divergence —
	// the common escape-free string is a zero-copy source slice.
	var sb strings.Builder
	chunk := l.pos
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '"':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' {
				sb.WriteString(l.src[chunk:l.pos])
				sb.WriteByte('"')
				l.pos += 2
				chunk = l.pos
				continue
			}
			var content string
			if sb.Len() == 0 {
				content = l.src[chunk:l.pos]
			} else {
				sb.WriteString(l.src[chunk:l.pos])
				content = sb.String()
			}
			l.pos++
			l.emitKind(String, start, content, DoubleQuoted, false)
			l.state = l.afterOperand()
			return
		case '`':
			r2, s2 := l.runeAt(l.pos + 1)
			if s2 == 0 {
				l.fail(start, "unterminated double-quoted string")
				return
			}
			sb.WriteString(l.src[chunk:l.pos])
			if esc, ok := doubleQuoteEscapes[r2]; ok {
				sb.WriteRune(esc)
			} else {
				sb.WriteRune(r2)
			}
			l.pos += 1 + s2
			chunk = l.pos
		case '$':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '(' {
				// Embedded subexpression: find the balanced close so
				// quotes inside do not end the string. The text stays
				// verbatim, so it remains part of the pending chunk.
				end, ok := FindMatchingParen(l.src, l.pos+1)
				if !ok {
					l.fail(start, "unterminated subexpression in string")
					return
				}
				l.pos = end + 1
				continue
			}
			l.pos++
		default:
			l.pos++
		}
	}
	l.fail(start, "unterminated double-quoted string")
}

// FindMatchingParen returns the index of the ')' matching the '(' at
// open, respecting nested parentheses, quotes and backtick escapes.
func FindMatchingParen(src string, open int) (int, bool) {
	depth := 0
	i := open
	for i < len(src) {
		switch src[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i, true
			}
		case '\'':
			j := skipSingleQuoted(src, i)
			if j < 0 {
				return 0, false
			}
			i = j
			continue
		case '"':
			j := skipDoubleQuoted(src, i)
			if j < 0 {
				return 0, false
			}
			i = j
			continue
		case '`':
			i++ // skip escaped char
		}
		i++
	}
	return 0, false
}

// skipSingleQuoted returns the index one past the closing quote of the
// single-quoted string starting at i, or -1.
func skipSingleQuoted(src string, i int) int {
	i++ // opening quote
	for i < len(src) {
		if src[i] == '\'' {
			if i+1 < len(src) && src[i+1] == '\'' {
				i += 2
				continue
			}
			return i + 1
		}
		i++
	}
	return -1
}

// skipDoubleQuoted returns the index one past the closing quote of the
// double-quoted string starting at i, or -1.
func skipDoubleQuoted(src string, i int) int {
	i++ // opening quote
	for i < len(src) {
		switch src[i] {
		case '"':
			if i+1 < len(src) && src[i+1] == '"' {
				i += 2
				continue
			}
			return i + 1
		case '`':
			i++
		case '$':
			if i+1 < len(src) && src[i+1] == '(' {
				end, ok := FindMatchingParen(src, i+1)
				if !ok {
					return -1
				}
				i = end
			}
		}
		i++
	}
	return -1
}

func (l *lexer) lexAt(start int) {
	switch l.peek(1) {
	case '\'':
		l.lexHereString(start, '\'')
	case '"':
		l.lexHereString(start, '"')
	case '(':
		l.pos = start
		l.pushGroup(cArraySub, start, "@(", sStmtStart)
	case '{':
		l.pos = start
		l.pushGroup(cHash, start, "@{", sHash)
	default:
		if isIdentChar(l.peek(1)) {
			// Splatted variable @args.
			l.pos++
			nameStart := l.pos
			for l.pos < len(l.src) {
				r, size := l.runeAt(l.pos)
				if !isIdentChar(r) {
					break
				}
				l.pos += size
			}
			l.emit(Variable, start, l.src[nameStart:l.pos])
			l.state = l.afterOperand()
			return
		}
		l.pos++
		l.emit(Operator, start, "@")
	}
}

func (l *lexer) lexHereString(start int, quote byte) {
	// Skip @q then optional spaces, then require a newline.
	i := start + 2
	for i < len(l.src) && isSpace(rune(l.src[i])) {
		i++
	}
	if i >= len(l.src) || (l.src[i] != '\n' && l.src[i] != '\r') {
		// Not a here-string after all; emit @ and continue.
		l.pos = start + 1
		l.emit(Operator, start, "@")
		return
	}
	if l.src[i] == '\r' {
		i++
	}
	if i < len(l.src) && l.src[i] == '\n' {
		i++
	}
	bodyStart := i
	term := "\n" + string(quote) + "@"
	idx := strings.Index(l.src[bodyStart:], term)
	if idx < 0 {
		l.fail(start, "unterminated here-string")
		return
	}
	body := l.src[bodyStart : bodyStart+idx]
	body = strings.TrimSuffix(body, "\r")
	l.pos = bodyStart + idx + len(term)
	kind := SingleHereString
	if quote == '"' {
		kind = DoubleHereString
	}
	l.emitKind(String, start, body, kind, false)
	l.state = l.afterOperand()
}

func (l *lexer) lexDollar(start int) {
	switch next := l.peek(1); {
	case next == '(':
		l.pos = start
		l.pushGroup(cSubExpr, start, "$(", sStmtStart)
	case next == '{':
		end := strings.IndexByte(l.src[start+2:], '}')
		if end < 0 {
			l.fail(start, "unterminated braced variable")
			return
		}
		name := l.src[start+2 : start+2+end]
		l.pos = start + 2 + end + 1
		l.emit(Variable, start, name)
		l.state = l.afterOperand()
	case specialVariables[next]:
		l.pos = start + 2
		l.emit(Variable, start, string(next))
		l.state = l.afterOperand()
	case isIdentChar(next):
		l.pos = start + 1
		nameStart := l.pos
		for l.pos < len(l.src) {
			r, size := l.runeAt(l.pos)
			if !isVariableChar(r) {
				break
			}
			l.pos += size
		}
		name := l.src[nameStart:l.pos]
		// A trailing colon only belongs to the name for drive-qualified
		// variables like $env:; strip it otherwise.
		if strings.HasSuffix(name, ":") {
			name = name[:len(name)-1]
			l.pos--
		}
		l.emit(Variable, start, name)
		l.state = l.afterOperand()
	default:
		l.pos = start + 1
		l.emit(Unknown, start, "$")
	}
}

func (l *lexer) lexOpenBracket(start int) {
	switch l.state {
	case sPostfix:
		if l.attached() {
			l.pushGroup(cIndex, start, "[", sStmtStart)
			return
		}
		l.lexTypeLiteral(start)
	case sArgs:
		if l.attached() && (l.lastType == Variable || l.lastType == GroupEnd || l.lastType == Member) {
			l.pushGroup(cIndex, start, "[", sStmtStart)
			return
		}
		// A bracketed bare word argument such as [char]65.
		l.lexBracketedBareword(start)
	default:
		l.lexTypeLiteral(start)
	}
}

func (l *lexer) lexTypeLiteral(start int) {
	depth := 0
	i := start
	for i < len(l.src) {
		switch l.src[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				l.pos = i + 1
				inner := l.src[start+1 : i]
				l.emit(TypeLiteral, start, stripTicks(inner))
				// After a type literal either :: follows (static member)
				// or an expression (cast); both are handled from sExpr.
				l.state = sExpr
				return
			}
		case '\n':
			l.fail(start, "unterminated type literal")
			return
		}
		i++
	}
	l.fail(start, "unterminated type literal")
}

func (l *lexer) lexBracketedBareword(start int) {
	depth := 0
	i := start
	for i < len(l.src) {
		c := l.src[i]
		if c == '[' {
			depth++
		} else if c == ']' {
			depth--
			if depth == 0 {
				i++
				break
			}
		} else if c == '\n' || c == ' ' || c == '\t' {
			break
		}
		i++
	}
	// Continue with any attached word characters.
	l.pos = i
	for l.pos < len(l.src) {
		r, size := l.runeAt(l.pos)
		if !isWordChar(r) && r != '[' && r != ']' {
			break
		}
		l.pos += size
	}
	l.emit(CommandArgument, start, l.src[start:l.pos])
}

func (l *lexer) lexColon(start int) {
	if l.peek(1) == ':' {
		l.pos = start + 2
		l.emit(Operator, start, "::")
		l.state = sMember
		return
	}
	if l.state == sStmtStart && isIdentChar(l.peek(1)) {
		l.pos = start + 1
		for l.pos < len(l.src) {
			r, size := l.runeAt(l.pos)
			if !isIdentChar(r) {
				break
			}
			l.pos += size
		}
		l.emit(LoopLabel, start, l.src[start+1:l.pos])
		return
	}
	l.pos = start + 1
	l.emit(Unknown, start, ":")
}

func (l *lexer) lexDot(start int) {
	next := l.peek(1)
	// Range operator.
	if next == '.' {
		l.pos = start + 2
		l.emit(Operator, start, "..")
		l.state = sExpr
		return
	}
	// Member access directly after an operand.
	if (l.state == sPostfix || l.state == sArgs || l.state == sHash) && l.attached() &&
		(isIdentChar(next) || next == '\'' || next == '"' || next == '$' || next == '(' || next == '`') {
		if l.lastType == Variable || l.lastType == GroupEnd || l.lastType == String ||
			l.lastType == Member || l.lastType == TypeLiteral || l.lastType == Number {
			l.pos = start + 1
			l.emit(Operator, start, ".")
			l.state = sMember
			return
		}
	}
	// Number like .5.
	if next >= '0' && next <= '9' && (l.state == sExpr || l.state == sStmtStart) {
		l.lexNumberOrWord(start)
		return
	}
	// Dot-source / call operator at statement start.
	if l.state == sStmtStart || l.state == sExpr || l.state == sCmdName {
		if next == ' ' || next == '\t' || next == '(' || next == '\'' || next == '"' || next == '$' {
			l.pos = start + 1
			l.emit(Operator, start, ".")
			l.state = sCmdName
			return
		}
	}
	// Otherwise part of a bare word such as .\run.ps1.
	l.lexWord(start)
}

func (l *lexer) lexDash(start int) {
	next := l.peek(1)
	switch {
	case next == '-':
		l.pos = start + 2
		l.emit(Operator, start, "--")
		return
	case next == '=':
		l.pos = start + 2
		l.emit(Operator, start, "-=")
		l.state = sStmtStart
		return
	case next >= '0' && next <= '9' || next == '.':
		if l.state == sPostfix {
			l.pos = start + 1
			l.emit(Operator, start, "-")
			l.state = sExpr
			return
		}
		l.lexNumberOrWord(start)
		return
	case isIdentChar(next) || next == '`':
		// A dash word: operator or parameter.
		l.pos = start + 1
		word, hadTicks := l.scanTickedIdent()
		op, unary := IsDashOperator(word)
		lower := strings.ToLower(word)
		switch l.state {
		case sArgs, sCmdName, sHash:
			// In argument mode dash words are parameters. A trailing
			// colon attaches the argument, e.g. -EncodedCommand:...
			if l.peek(0) == ':' {
				l.pos++
			}
			l.emitKind(CommandParameter, start, "-"+word, BareWord, hadTicks)
			l.state = sArgs
		case sPostfix:
			if op {
				l.emit(Operator, start, "-"+lower)
				l.state = sExpr
			} else {
				l.emitKind(CommandParameter, start, "-"+word, BareWord, hadTicks)
				l.state = sArgs
			}
		default:
			if op && unary {
				l.emit(Operator, start, "-"+lower)
				l.state = sExpr
			} else if op {
				l.emit(Operator, start, "-"+lower)
				l.state = sExpr
			} else {
				l.emitKind(CommandParameter, start, "-"+word, BareWord, hadTicks)
				l.state = sArgs
			}
		}
		return
	default:
		l.pos = start + 1
		l.emit(Operator, start, "-")
		l.state = sExpr
	}
}

// scanTickedIdent scans identifier characters allowing backtick escapes,
// returning the tick-stripped text.
func (l *lexer) scanTickedIdent() (string, bool) {
	// Tick-free identifiers (the overwhelming majority) come back as a
	// zero-copy slice of the source; a builder is materialized only on
	// the first backtick, seeded with the verbatim span so far.
	start := l.pos
	var sb strings.Builder
	hadTicks := false
	chunk := start
	for l.pos < len(l.src) {
		r, size := l.runeAt(l.pos)
		if r == '`' {
			r2, s2 := l.runeAt(l.pos + size)
			if s2 == 0 || !isIdentChar(r2) {
				break
			}
			sb.WriteString(l.src[chunk:l.pos])
			sb.WriteRune(r2)
			hadTicks = true
			l.pos += size + s2
			chunk = l.pos
			continue
		}
		if !isIdentChar(r) {
			break
		}
		l.pos += size
	}
	if !hadTicks {
		return l.src[start:l.pos], false
	}
	sb.WriteString(l.src[chunk:l.pos])
	return sb.String(), true
}

func (l *lexer) lexSimpleOperator(start int, r rune) {
	if l.state == sArgs && r != '>' && r != '<' {
		// In argument mode these characters begin bare words (*, %
		// wildcards, a=b, etc.).
		l.lexWord(start)
		return
	}
	if (l.state == sStmtStart || l.state == sCmdName) && (r == '%' || r == '*' || r == '?') {
		// % is the ForEach-Object alias, ? the Where-Object alias.
		l.lexWord(start)
		return
	}
	next := l.peek(1)
	switch r {
	case '+':
		if next == '+' {
			l.pos = start + 2
			l.emit(Operator, start, "++")
			return
		}
		if next == '=' {
			l.pos = start + 2
			l.emit(Operator, start, "+=")
			l.state = sStmtStart
			return
		}
		l.pos = start + 1
		l.emit(Operator, start, "+")
		l.state = sExpr
	case '*', '/', '%':
		if next == '=' {
			l.pos = start + 2
			l.emit(Operator, start, string(r)+"=")
			l.state = sStmtStart
			return
		}
		l.pos = start + 1
		l.emit(Operator, start, string(r))
		l.state = sExpr
	case '!':
		l.pos = start + 1
		l.emit(Operator, start, "!")
		l.state = sExpr
	case '=':
		if next == '=' {
			l.pos = start + 2
			l.emit(Operator, start, "==")
			l.state = sExpr
			return
		}
		l.pos = start + 1
		l.emit(Operator, start, "=")
		l.state = sStmtStart
	case '>':
		if next == '>' {
			l.pos = start + 2
			l.emit(Operator, start, ">>")
		} else {
			l.pos = start + 1
			l.emit(Operator, start, ">")
		}
		l.state = sArgs
	case '<':
		l.pos = start + 1
		l.emit(Operator, start, "<")
		l.state = sExpr
	}
}

// lexNumberOrWord scans a broad word and classifies it as a number if it
// parses as one, otherwise as a command/argument word for the state.
func (l *lexer) lexNumberOrWord(start int) {
	switch l.state {
	case sExpr, sStmtStart, sPostfix, sMember, sHash:
		if l.lexStrictNumber(start) {
			return
		}
	}
	l.lexWord(start)
}

// lexStrictNumber scans a numeric literal in expression position. It
// returns false (and resets) if the text is not a valid number.
func (l *lexer) lexStrictNumber(start int) bool {
	i := start
	if i < len(l.src) && (l.src[i] == '-' || l.src[i] == '+') {
		i++
	}
	numStart := i
	if i+1 < len(l.src) && l.src[i] == '0' && (l.src[i+1] == 'x' || l.src[i+1] == 'X') {
		i += 2
		hexStart := i
		for i < len(l.src) && isHexDigit(l.src[i]) {
			i++
		}
		if i == hexStart {
			return false
		}
	} else {
		digits := 0
		for i < len(l.src) && l.src[i] >= '0' && l.src[i] <= '9' {
			i++
			digits++
		}
		if i < len(l.src) && l.src[i] == '.' && (i+1 >= len(l.src) || l.src[i+1] != '.') {
			i++
			for i < len(l.src) && l.src[i] >= '0' && l.src[i] <= '9' {
				i++
				digits++
			}
		}
		if digits == 0 {
			return false
		}
		if i < len(l.src) && (l.src[i] == 'e' || l.src[i] == 'E') {
			j := i + 1
			if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
				j++
			}
			expDigits := 0
			for j < len(l.src) && l.src[j] >= '0' && l.src[j] <= '9' {
				j++
				expDigits++
			}
			if expDigits > 0 {
				i = j
			}
		}
	}
	// Type suffix and multiplier.
	if i < len(l.src) && (l.src[i] == 'd' || l.src[i] == 'D' || l.src[i] == 'l' || l.src[i] == 'L') {
		i++
	}
	if i+1 < len(l.src) {
		m := strings.ToLower(l.src[i : i+2])
		switch m {
		case "kb", "mb", "gb", "tb", "pb":
			i += 2
		}
	}
	// The number must end at a non-word boundary.
	if i < len(l.src) {
		r, _ := l.runeAt(i)
		if isIdentChar(r) {
			return false
		}
	}
	_ = numStart
	l.pos = i
	l.emit(Number, start, l.src[start:i])
	l.state = l.afterOperand()
	return true
}

func isHexDigit(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

// lexWord scans a bare word (with backtick escapes) and classifies it
// according to the current state.
func (l *lexer) lexWord(start int) {
	l.pos = start
	// Same chunked strategy as the string lexers: tick-free words (the
	// common case) are zero-copy source slices; the builder exists
	// only once a backtick escape makes the content diverge.
	var sb strings.Builder
	hadTicks := false
	chunk := start
	narrow := l.state == sMember || l.state == sHash || l.state == sExpr || l.state == sPostfix
	for l.pos < len(l.src) {
		r, size := l.runeAt(l.pos)
		if r == '`' {
			r2, s2 := l.runeAt(l.pos + size)
			if s2 == 0 || r2 == '\n' || r2 == '\r' {
				break
			}
			sb.WriteString(l.src[chunk:l.pos])
			sb.WriteRune(r2)
			hadTicks = true
			l.pos += size + s2
			chunk = l.pos
			continue
		}
		if narrow {
			if !isIdentChar(r) {
				break
			}
		} else if !isWordChar(r) || r == '<' || r == '>' || r == '[' || r == ']' {
			break
		}
		l.pos += size
	}
	if l.pos == start {
		// Defensive: always make progress.
		_, size := l.runeAt(l.pos)
		l.pos += size
		l.emit(Unknown, start, l.src[start:l.pos])
		return
	}
	var word string
	if !hadTicks {
		word = l.src[start:l.pos]
	} else {
		sb.WriteString(l.src[chunk:l.pos])
		word = sb.String()
	}
	l.classifyWord(start, word, hadTicks)
}

func (l *lexer) classifyWord(start int, word string, hadTicks bool) {
	switch l.state {
	case sStmtStart, sCmdName:
		if l.state == sStmtStart && !l.afterPipe && IsKeyword(word) && !hadTicks {
			l.emitKeyword(start, word)
			return
		}
		if isNumberLiteral(word) {
			l.emit(Number, start, word)
			l.state = sPostfix
			return
		}
		l.emitKind(Command, start, word, BareWord, hadTicks)
		l.state = sArgs
	case sFunctionName:
		l.emitKind(CommandArgument, start, word, BareWord, hadTicks)
		l.state = sStmtStart
	case sArgs:
		if isNumberLiteral(word) {
			l.emit(Number, start, word)
			return
		}
		l.emitKind(CommandArgument, start, word, BareWord, hadTicks)
	case sMember:
		l.emitKind(Member, start, word, BareWord, hadTicks)
		l.state = sPostfix
	case sHash:
		l.emitKind(Member, start, word, BareWord, hadTicks)
	default:
		// Keywords also follow closed blocks (else, catch, finally,
		// while after do) and operands (in inside foreach).
		if IsKeyword(word) && !hadTicks {
			l.emitKeyword(start, word)
			return
		}
		l.emitKind(CommandArgument, start, word, BareWord, hadTicks)
		l.state = sPostfix
	}
}

func (l *lexer) emitKeyword(start int, word string) {
	l.emit(Keyword, start, strings.ToLower(word))
	switch strings.ToLower(word) {
	case "function", "filter", "workflow":
		l.state = sFunctionName
	case "in":
		l.state = sExpr
	default:
		l.state = sStmtStart
	}
}

// isNumberLiteral reports whether s is a complete PowerShell numeric
// literal.
func isNumberLiteral(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[i] == '-' || s[i] == '+' {
		i++
		if i == len(s) {
			return false
		}
	}
	if i+1 < len(s) && s[i] == '0' && (s[i+1] == 'x' || s[i+1] == 'X') {
		i += 2
		if i == len(s) {
			return false
		}
		for ; i < len(s); i++ {
			if !isHexDigit(s[i]) {
				return false
			}
		}
		return true
	}
	digits := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		digits++
	}
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			digits++
		}
	}
	if digits == 0 {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		expDigits := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			expDigits++
		}
		if expDigits == 0 {
			return false
		}
	}
	if i < len(s) && (s[i] == 'd' || s[i] == 'D' || s[i] == 'l' || s[i] == 'L') {
		i++
	}
	if i+2 == len(s) {
		switch strings.ToLower(s[i:]) {
		case "kb", "mb", "gb", "tb", "pb":
			i += 2
		}
	}
	return i == len(s)
}

// StripTicks removes backtick escapes from s (outside of strings).
func StripTicks(s string) string {
	return stripTicks(s)
}

// stripTicks removes backtick escapes from s (outside of strings).
func stripTicks(s string) string {
	if !strings.ContainsRune(s, '`') {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '`' && i+1 < len(s) {
			i++
			sb.WriteByte(s[i])
			continue
		}
		if s[i] != '`' {
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}
