package rdf

import (
	"fmt"
	"strings"
)

// ParseTriple parses a single N-Triples statement (terminated by '.').
func ParseTriple(line string) (Triple, error) {
	p := &ntParser{s: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if !p.eat('.') {
		return Triple{}, fmt.Errorf("missing terminating '.' in %q", line)
	}
	p.skipSpace()
	if p.i != len(p.s) {
		return Triple{}, fmt.Errorf("trailing content after '.' in %q", line)
	}
	t := T(s, pr, o)
	if err := t.Validate(); err != nil {
		return Triple{}, err
	}
	return t, nil
}

// ParseTerm parses a single N-Triples term (IRI, literal or blank node).
func ParseTerm(s string) (Term, error) {
	p := &ntParser{s: s}
	t, err := p.term()
	if err != nil {
		return Term{}, err
	}
	p.skipSpace()
	if p.i != len(p.s) {
		return Term{}, fmt.Errorf("trailing content after term in %q", s)
	}
	return t, nil
}

type ntParser struct {
	s string
	i int
}

func (p *ntParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *ntParser) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return Term{}, fmt.Errorf("unexpected end of input")
	}
	switch p.s[p.i] {
	case '<':
		return p.iri()
	case '"':
		return p.literal()
	case '_':
		return p.blank()
	default:
		return Term{}, fmt.Errorf("unexpected character %q at offset %d", p.s[p.i], p.i)
	}
}

func (p *ntParser) iri() (Term, error) {
	p.i++ // consume '<'
	end := strings.IndexByte(p.s[p.i:], '>')
	if end < 0 {
		return Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.s[p.i : p.i+end]
	p.i += end + 1
	if iri == "" {
		return Term{}, fmt.Errorf("empty IRI")
	}
	return IRI(iri), nil
}

func (p *ntParser) blank() (Term, error) {
	if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
		return Term{}, fmt.Errorf("malformed blank node label")
	}
	p.i += 2
	start := p.i
	for p.i < len(p.s) && !isNTSpace(p.s[p.i]) {
		p.i++
	}
	label := p.s[start:p.i]
	if label == "" {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	return Blank(label), nil
}

func (p *ntParser) literal() (Term, error) {
	p.i++ // consume opening '"'
	var raw strings.Builder
	for {
		if p.i >= len(p.s) {
			return Term{}, fmt.Errorf("unterminated literal")
		}
		c := p.s[p.i]
		if c == '\\' {
			if p.i+1 >= len(p.s) {
				return Term{}, fmt.Errorf("dangling escape in literal")
			}
			raw.WriteByte(c)
			raw.WriteByte(p.s[p.i+1])
			p.i += 2
			continue
		}
		if c == '"' {
			p.i++
			break
		}
		raw.WriteByte(c)
		p.i++
	}
	lexical, err := unescapeLiteral(raw.String())
	if err != nil {
		return Term{}, err
	}
	// Optional language tag or datatype.
	if p.i < len(p.s) && p.s[p.i] == '@' {
		p.i++
		start := p.i
		for p.i < len(p.s) && !isNTSpace(p.s[p.i]) && p.s[p.i] != '.' {
			p.i++
		}
		lang := p.s[start:p.i]
		if lang == "" {
			return Term{}, fmt.Errorf("empty language tag")
		}
		return LangLiteral(lexical, lang), nil
	}
	if strings.HasPrefix(p.s[p.i:], "^^") {
		p.i += 2
		if p.i >= len(p.s) || p.s[p.i] != '<' {
			return Term{}, fmt.Errorf("expected datatype IRI after ^^")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return TypedLiteral(lexical, dt.Value()), nil
	}
	return Literal(lexical), nil
}

func isNTSpace(c byte) bool { return c == ' ' || c == '\t' }
