package sparql

import (
	"sort"

	"qurator/internal/rdf"
)

// Result is the outcome of executing a query.
type Result struct {
	// Vars are the projected variable names, in projection order.
	Vars []string
	// Bindings are the solution rows (SELECT only).
	Bindings []Binding
	// Ok is the ASK answer (ASK only).
	Ok bool
}

// Exec parses and executes a query against the dataset. Passing a live
// *rdf.Graph is safe and cheap: Exec takes an O(1) snapshot first, so
// evaluation is lock-free and never blocks the graph's writers.
func Exec(d rdf.Dataset, query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Exec(d)
}

// Exec executes the parsed query against the dataset with the streaming
// evaluator: triple patterns are ordered by estimated cardinality (index
// statistics), then joined by a push pipeline that binds in place and
// backtracks — solutions stream through union/optional/filter stages one
// at a time instead of materializing a []Binding between every stage.
func (q *Query) Exec(d rdf.Dataset) (*Result, error) {
	// Snapshot live graphs so evaluation holds no lock: long queries must
	// not block writers, and nested pattern iteration must not re-enter
	// the graph's RWMutex.
	if g, ok := d.(*rdf.Graph); ok {
		d = g.Snapshot()
	}
	plan := planGroup(d, q.Where, nil)

	if q.Form == FormAsk {
		found := false
		plan.run(d, Binding{}, func(Binding) bool {
			found = true
			return false // first solution answers ASK; stop the scan
		})
		return &Result{Ok: found}, nil
	}

	vars := q.Vars
	if len(vars) == 0 {
		vars = collectVars(q.Where)
	}

	// Project each streamed solution into a fresh row (the pipeline's
	// binding map is reused), deduplicating inline under DISTINCT.
	var rows []Binding
	var seen map[string]struct{}
	var key []byte
	if q.Distinct {
		seen = make(map[string]struct{})
	}
	plan.run(d, Binding{}, func(b Binding) bool {
		row := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := b[v]; ok {
				row[v] = t
			}
		}
		if q.Distinct {
			key = key[:0]
			for _, v := range vars {
				key = row[v].AppendKey(key)
				key = append(key, 0)
			}
			if _, dup := seen[string(key)]; dup {
				return true
			}
			seen[string(key)] = struct{}{}
		}
		rows = append(rows, row)
		return true
	})

	if len(q.OrderBy) > 0 {
		sortBindings(rows, q.OrderBy)
	} else {
		// Deterministic default order keyed on projected values, so
		// repeated queries over the same graph return identical rows.
		sortBindings(rows, defaultOrder(vars))
	}

	// OFFSET/LIMIT.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}

	return &Result{Vars: vars, Bindings: rows}, nil
}

func defaultOrder(vars []string) []OrderKey {
	keys := make([]OrderKey, len(vars))
	for i, v := range vars {
		keys[i] = OrderKey{Var: v}
	}
	return keys
}

func sortBindings(rows []Binding, keys []OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			a, aok := rows[i][k.Var]
			b, bok := rows[j][k.Var]
			if !aok && !bok {
				continue
			}
			// Unbound sorts first (SPARQL: unbound < everything).
			if !aok {
				return !k.Desc
			}
			if !bok {
				return k.Desc
			}
			c := compareOrderTerms(a, b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// compareOrderTerms orders numerically when both terms are numeric,
// otherwise falls back to the total term order.
func compareOrderTerms(a, b rdf.Term) int {
	if af, ok := a.Float(); ok {
		if bf, ok := b.Float(); ok {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	return rdf.CompareTerms(a, b)
}

func collectVars(g *GroupPattern) []string {
	seen := map[string]struct{}{}
	var order []string
	add := func(pt PatternTerm) {
		if pt.IsVar() {
			if _, ok := seen[pt.Var]; !ok {
				seen[pt.Var] = struct{}{}
				order = append(order, pt.Var)
			}
		}
	}
	var walk func(g *GroupPattern)
	walk = func(g *GroupPattern) {
		for _, tp := range g.Patterns {
			add(tp.S)
			add(tp.P)
			add(tp.O)
		}
		for _, opt := range g.Optionals {
			walk(opt)
		}
		for _, alts := range g.Unions {
			for _, alt := range alts {
				walk(alt)
			}
		}
	}
	walk(g)
	return order
}
