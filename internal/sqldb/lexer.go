package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokPlaceholder // ?
	tokSymbol      // punctuation and operators
)

// token is one lexical unit. For keywords, text is upper-cased; identifiers
// keep their original case but match case-insensitively.
type token struct {
	kind tokenKind
	text string
	num  Value // for tokNumber
	pos  int
}

// keywords recognized by the parser. Anything else alphabetic is an
// identifier. The rows after the gap are reserved without a grammar rule, so
// that syntax this engine does not implement is rejected where it starts
// rather than read as a column name or table alias.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"CREATE": true, "TABLE": true, "INDEX": true,
	"ON": true, "PRIMARY": true, "KEY": true, "NOT": true, "NULL": true,
	"AND": true, "OR": true, "ORDER": true, "BY": true, "ASC": true,
	"DESC": true, "LIMIT": true, "JOIN": true, "DISTINCT": true, "LIKE": true,
	"UNIQUE": true, "INT": true, "FLOAT": true, "TEXT": true,

	"GROUP": true, "HAVING": true, "OFFSET": true, "IN": true, "IS": true,
	"BETWEEN": true, "COUNT": true, "SUM": true, "AVG": true, "MIN": true,
	"MAX": true, "DROP": true, "DELETE": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"AS": true, "INNER": true, "TRUE": true, "FALSE": true,
}

// SyntaxError reports a lexing or parsing failure with its byte position.
type SyntaxError struct {
	Pos int
	Msg string
	SQL string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sqldb: syntax error at %d: %s in %q", e.Pos, e.Msg, e.SQL)
}

// lex tokenizes sql. It returns a token slice ending with tokEOF.
func lex(sql string) ([]token, error) {
	var toks []token
	i := 0
	n := len(sql)
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if sql[i] == '\'' {
					if i+1 < n && sql[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(sql[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{Pos: start, Msg: "unterminated string", SQL: sql}
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c == '?':
			toks = append(toks, token{kind: tokPlaceholder, text: "?", pos: i})
			i++
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && sql[i+1] >= '0' && sql[i+1] <= '9'):
			start := i
			isFloat := false
			for i < n && (sql[i] >= '0' && sql[i] <= '9' || sql[i] == '.') {
				if sql[i] == '.' {
					isFloat = true
				}
				i++
			}
			text := sql[start:i]
			var v Value
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, &SyntaxError{Pos: start, Msg: "bad number " + text, SQL: sql}
				}
				v = Float(f)
			} else {
				iv, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, &SyntaxError{Pos: start, Msg: "bad number " + text, SQL: sql}
				}
				v = Int(iv)
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: v, pos: start})
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(sql[i])) {
				i++
			}
			text := sql[start:i]
			upper := strings.ToUpper(text)
			if keywords[upper] {
				toks = append(toks, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: text, pos: start})
			}
		default:
			start := i
			var sym string
			two := ""
			if i+1 < n {
				two = sql[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>":
				sym = two
				i += 2
			default:
				switch c {
				case '=', '<', '>', '(', ')', ',', '*', '+', '-', '/', '.':
					sym = string(c)
					i++
				default:
					return nil, &SyntaxError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c), SQL: sql}
				}
			}
			toks = append(toks, token{kind: tokSymbol, text: sym, pos: start})
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
