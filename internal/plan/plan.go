// Package plan defines the typed query-plan tree the Prepare layer
// produces before execution and the EXPLAIN surfaces render. Following
// the Parse → Prepare → Execute split of production SQL engines, a Plan
// is built once per (snapshot, normalized SQL) pair, cached as a
// prepared statement, and describes exactly the access paths, join
// steps, and filters the executor will run — the planner and the
// executor share one plan structure, so EXPLAIN cannot drift from
// execution.
//
// Every node is typed in the sense of the polymorphic relational
// algebra: it exposes the schema (column names and types) of the rows
// it produces, so consumers can type-check a plan bottom-up without
// executing it. Estimated cardinalities come from index range counts
// (exact at plan time) scaled by heuristic selectivities for residual
// predicates.
//
// The plan also records the semantic rewrites applied while building it
// — the paper's induced rules acting as a query accelerator: provably
// empty restrictions short-circuit to an Empty node, rule-implied
// restrictions appear as extra pushed-down conjuncts, and redundant
// restrictions are dropped from the residual filter. Rewrites make the
// intensional knowledge visible in the plan.
package plan

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Column is one typed output column of a plan node.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Node is one operator of the plan tree. Implementations are the
// concrete shapes below; Schema is the node's output type.
type Node interface {
	// Kind names the operator ("IndexScan", "HashJoin", ...).
	Kind() string
	// Label is the one-line operator description EXPLAIN prints after
	// the kind.
	Label() string
	// EstRows is the estimated output cardinality.
	EstRows() int
	// Schema is the node's output columns, in order.
	Schema() []Column
	// Children returns the input nodes, outermost first.
	Children() []Node
}

// FullScan reads every row of a relation.
type FullScan struct {
	Relation string
	Binding  string // range-variable / alias the relation is scanned as
	Est      int
	Cols     []Column
}

func (n *FullScan) Kind() string { return "FullScan" }

func (n *FullScan) Label() string {
	l := n.Relation
	if n.Binding != "" && !strings.EqualFold(n.Binding, n.Relation) {
		l += " as " + n.Binding
	}
	return l
}
func (n *FullScan) EstRows() int     { return n.Est }
func (n *FullScan) Schema() []Column { return n.Cols }
func (n *FullScan) Children() []Node { return nil }

// IndexScan reads the rows a sorted secondary index selects for one
// "column op value" condition.
type IndexScan struct {
	Relation string
	Binding  string
	Column   string
	Op       string
	Value    string // rendered constant
	Est      int    // exact range count at plan time
	Cols     []Column
	// Implied marks an access condition that came from a semopt-implied
	// restriction rather than the query text.
	Implied bool
}

func (n *IndexScan) Kind() string { return "IndexScan" }

func (n *IndexScan) Label() string {
	l := fmt.Sprintf("%s on %s %s %s", n.Relation, n.Column, n.Op, n.Value)
	if n.Binding != "" && !strings.EqualFold(n.Binding, n.Relation) {
		l = fmt.Sprintf("%s as %s on %s %s %s", n.Relation, n.Binding, n.Column, n.Op, n.Value)
	}
	if n.Implied {
		l += " [implied]"
	}
	return l
}
func (n *IndexScan) EstRows() int     { return n.Est }
func (n *IndexScan) Schema() []Column { return n.Cols }
func (n *IndexScan) Children() []Node { return nil }

// Filter applies predicates to its input.
type Filter struct {
	Conds []string
	Est   int
	Input Node
}

func (n *Filter) Kind() string     { return "Filter" }
func (n *Filter) Label() string    { return strings.Join(n.Conds, " and ") }
func (n *Filter) EstRows() int     { return n.Est }
func (n *Filter) Schema() []Column { return n.Input.Schema() }
func (n *Filter) Children() []Node { return []Node{n.Input} }

// HashJoin equi-joins its inputs: the right side is hashed on the join
// keys and probed with the left.
type HashJoin struct {
	On          []string // "l.attr = r.attr" conditions
	Est         int
	Left, Right Node
}

func (n *HashJoin) Kind() string  { return "HashJoin" }
func (n *HashJoin) Label() string { return strings.Join(n.On, " and ") }
func (n *HashJoin) EstRows() int  { return n.Est }
func (n *HashJoin) Schema() []Column {
	return append(append([]Column(nil), n.Left.Schema()...), n.Right.Schema()...)
}
func (n *HashJoin) Children() []Node { return []Node{n.Left, n.Right} }

// CrossJoin pairs every left row with every right row — the fallback
// when no equality conjunct links a variable to the bound set.
type CrossJoin struct {
	Est         int
	Left, Right Node
}

func (n *CrossJoin) Kind() string  { return "CrossJoin" }
func (n *CrossJoin) Label() string { return "" }
func (n *CrossJoin) EstRows() int  { return n.Est }
func (n *CrossJoin) Schema() []Column {
	return append(append([]Column(nil), n.Left.Schema()...), n.Right.Schema()...)
}
func (n *CrossJoin) Children() []Node { return []Node{n.Left, n.Right} }

// Project narrows the input to the target columns.
type Project struct {
	Cols  []Column
	Est   int
	Input Node
}

func (n *Project) Kind() string { return "Project" }
func (n *Project) Label() string {
	names := make([]string, len(n.Cols))
	for i, c := range n.Cols {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}
func (n *Project) EstRows() int     { return n.Est }
func (n *Project) Schema() []Column { return n.Cols }
func (n *Project) Children() []Node { return []Node{n.Input} }

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
}

func (n *Distinct) Kind() string     { return "Distinct" }
func (n *Distinct) Label() string    { return "" }
func (n *Distinct) EstRows() int     { return n.Input.EstRows() }
func (n *Distinct) Schema() []Column { return n.Input.Schema() }
func (n *Distinct) Children() []Node { return []Node{n.Input} }

// Sort orders the input by the given keys.
type Sort struct {
	Keys  []string // column names, "desc"-suffixed when descending
	Input Node
}

func (n *Sort) Kind() string     { return "Sort" }
func (n *Sort) Label() string    { return strings.Join(n.Keys, ", ") }
func (n *Sort) EstRows() int     { return n.Input.EstRows() }
func (n *Sort) Schema() []Column { return n.Input.Schema() }
func (n *Sort) Children() []Node { return []Node{n.Input} }

// Aggregate groups the input and folds aggregate functions over each
// group.
type Aggregate struct {
	Items   []string // output items, e.g. "count(*)", "avg_displacement"
	GroupBy []string
	Est     int
	Cols    []Column
	Input   Node
}

func (n *Aggregate) Kind() string { return "Aggregate" }

func (n *Aggregate) Label() string {
	l := strings.Join(n.Items, ", ")
	if len(n.GroupBy) > 0 {
		l += " group by " + strings.Join(n.GroupBy, ", ")
	}
	return l
}
func (n *Aggregate) EstRows() int     { return n.Est }
func (n *Aggregate) Schema() []Column { return n.Cols }
func (n *Aggregate) Children() []Node { return []Node{n.Input} }

// Empty produces no rows: the semantic optimizer proved the answer
// empty from the serving rules and active domains, so execution touches
// no relation at all.
type Empty struct {
	Reason string
	Cols   []Column
}

func (n *Empty) Kind() string     { return "Empty" }
func (n *Empty) Label() string    { return n.Reason }
func (n *Empty) EstRows() int     { return 0 }
func (n *Empty) Schema() []Column { return n.Cols }
func (n *Empty) Children() []Node { return nil }

// Rewrite records one semantic-optimization decision taken while
// planning — the visible trace of the rule base accelerating the query.
type Rewrite struct {
	// Kind is "empty", "implied", or "redundant".
	Kind string `json:"kind"`
	// Detail is the human-readable condition, e.g. the implied
	// restriction added or the redundant one dropped.
	Detail string `json:"detail"`
}

// Plan is the prepared form of one query.
type Plan struct {
	// SQL is the normalized statement text the plan was prepared from —
	// the prepared-statement cache key.
	SQL string
	// Root is the plan tree.
	Root Node
	// Rewrites lists the semantic-optimization decisions applied.
	Rewrites []Rewrite
}

// EstRows is the plan's estimated result cardinality.
func (p *Plan) EstRows() int {
	if p.Root == nil {
		return 0
	}
	return p.Root.EstRows()
}

// String renders the plan as an indented operator tree, rewrites first.
func (p *Plan) String() string {
	var b strings.Builder
	for _, rw := range p.Rewrites {
		fmt.Fprintf(&b, "rewrite [%s]: %s\n", rw.Kind, rw.Detail)
	}
	var walk func(n Node, prefix string, last bool, root bool)
	walk = func(n Node, prefix string, last bool, root bool) {
		line := n.Kind()
		if l := n.Label(); l != "" {
			line += " [" + l + "]"
		}
		line += fmt.Sprintf(" (est %d)", n.EstRows())
		if root {
			b.WriteString(line + "\n")
		} else {
			branch := "├─ "
			if last {
				branch = "└─ "
			}
			b.WriteString(prefix + branch + line + "\n")
		}
		kids := n.Children()
		childPrefix := prefix
		if !root {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		for i, k := range kids {
			walk(k, childPrefix, i == len(kids)-1, false)
		}
	}
	if p.Root != nil {
		walk(p.Root, "", true, true)
	}
	return b.String()
}

// WireNode is the JSON shape of a plan node, kind-tagged and recursive,
// for the POST /explain response.
type WireNode struct {
	Kind     string     `json:"kind"`
	Label    string     `json:"label,omitempty"`
	EstRows  int        `json:"estRows"`
	Schema   []Column   `json:"schema,omitempty"`
	Children []WireNode `json:"children,omitempty"`
}

// ToWire converts a node tree to its JSON shape.
func ToWire(n Node) WireNode {
	w := WireNode{Kind: n.Kind(), Label: n.Label(), EstRows: n.EstRows(), Schema: n.Schema()}
	for _, k := range n.Children() {
		w.Children = append(w.Children, ToWire(k))
	}
	return w
}

// MarshalJSON renders the whole plan in wire form.
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := struct {
		SQL      string    `json:"sql"`
		EstRows  int       `json:"estRows"`
		Rewrites []Rewrite `json:"rewrites,omitempty"`
		Root     *WireNode `json:"root,omitempty"`
		Text     string    `json:"text"`
	}{SQL: p.SQL, EstRows: p.EstRows(), Rewrites: p.Rewrites, Text: p.String()}
	if p.Root != nil {
		w := ToWire(p.Root)
		out.Root = &w
	}
	return json.Marshal(out)
}
