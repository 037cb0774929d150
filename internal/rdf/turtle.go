package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteTurtle writes the graph in a compact Turtle subset: prefix
// declarations, subject grouping with ';' separators, and 'a' for
// rdf:type. The output is for human inspection and documentation
// (annotation graphs, the IQ model); N-Triples (Triple.String and
// ParseTriple) remains the canonical machine format.
//
// prefixes maps prefix names to namespace IRIs (e.g. "q" →
// "http://qurator.org/iq#"). IRIs outside every namespace are written in
// angle brackets.
func WriteTurtle(w io.Writer, g *Graph, prefixes map[string]string) error {
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(prefixes))
	for n := range prefixes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "@prefix %s: <%s> .\n", n, prefixes[n])
	}
	if len(names) > 0 {
		bw.WriteByte('\n')
	}

	term := func(t Term) string {
		if t.IsIRI() {
			if t.Value() == RDFType {
				return "a"
			}
			for _, n := range names {
				ns := prefixes[n]
				if local, ok := strings.CutPrefix(t.Value(), ns); ok && isTurtleLocal(local) {
					return n + ":" + local
				}
			}
		}
		return t.String()
	}

	// Group triples by subject, predicates sorted.
	triples := g.Triples()
	bySubject := map[Term][]Triple{}
	var subjects []Term
	for _, t := range triples {
		if _, ok := bySubject[t.Subject]; !ok {
			subjects = append(subjects, t.Subject)
		}
		bySubject[t.Subject] = append(bySubject[t.Subject], t)
	}
	for _, s := range subjects {
		ts := bySubject[s]
		fmt.Fprintf(bw, "%s\n", term(s))
		for i, t := range ts {
			sep := " ;"
			if i == len(ts)-1 {
				sep = " ."
			}
			fmt.Fprintf(bw, "    %s %s%s\n", term(t.Predicate), term(t.Object), sep)
		}
	}
	return bw.Flush()
}

// isTurtleLocal reports whether a local name is safe to emit unquoted.
func isTurtleLocal(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '-' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}
