// The mutation executor: INSERT, DELETE, and UPDATE against a catalog.
// Statements execute copy-on-write — the target relation is deep-cloned,
// the clone is mutated and Put back, and nothing is published until the
// statement has fully succeeded. Snapshots holding the previous catalog
// therefore never observe a partial mutation, which is what lets the
// core layer run the write path alongside lock-free readers.

package query

import (
	"fmt"
	"strings"

	"intensional/internal/relation"
	"intensional/internal/sqlparse"
	"intensional/internal/storage"
)

// Mutation is the net effect of one executed DML statement: the tuples
// added and removed, in relation row order. An UPDATE reports each
// changed row twice — its old image under Deleted and its new image
// under Inserted. The tuple slices alias relation storage and must be
// treated as read-only.
type Mutation struct {
	Kind     string // "insert", "delete", or "update"
	Table    string // the relation's declared name
	Schema   *relation.Schema
	Inserted []relation.Tuple
	Deleted  []relation.Tuple
}

// Count returns how many tuples the statement touched: rows added plus
// rows removed for INSERT/DELETE, rows changed for UPDATE.
func (m *Mutation) Count() int {
	if m.Kind == "update" {
		return len(m.Inserted)
	}
	return len(m.Inserted) + len(m.Deleted)
}

// ApplyMutation executes one DML statement against the catalog. The
// mutated relation is replaced wholesale (deep clone, mutate, Put), so
// the caller may pass a storage.Catalog.ShallowClone and publish it only
// after every statement of a batch has succeeded. A failed statement
// leaves the catalog exactly as it was.
func ApplyMutation(cat *storage.Catalog, st sqlparse.Stmt) (*Mutation, error) {
	switch st := st.(type) {
	case *sqlparse.Insert:
		return applyInsert(cat, st)
	case *sqlparse.Delete:
		return applyDelete(cat, st)
	case *sqlparse.Update:
		return applyUpdate(cat, st)
	default:
		return nil, fmt.Errorf("query: %s is not a mutation statement", st.Kind())
	}
}

func applyInsert(cat *storage.Catalog, st *sqlparse.Insert) (*Mutation, error) {
	rel, err := cat.Get(st.Table)
	if err != nil {
		return nil, err
	}
	clone := rel.Clone()
	schema := clone.Schema()
	m := &Mutation{Kind: "insert", Table: clone.Name(), Schema: schema}

	// Map the column list (when present) to schema positions once;
	// unmentioned columns receive NULL.
	var idx []int
	if st.Columns != nil {
		seen := make(map[int]bool)
		for _, name := range st.Columns {
			ci, ok := schema.Index(name)
			if !ok {
				return nil, fmt.Errorf("query: table %s has no column %q", clone.Name(), name)
			}
			if seen[ci] {
				return nil, fmt.Errorf("query: column %q listed twice", name)
			}
			seen[ci] = true
			idx = append(idx, ci)
		}
	}

	var inserted []relation.Tuple
	for _, row := range st.Rows {
		t := make(relation.Tuple, schema.Len())
		if st.Columns == nil {
			if len(row) != schema.Len() {
				return nil, fmt.Errorf("query: table %s has %d columns, VALUES row has %d",
					clone.Name(), schema.Len(), len(row))
			}
			for i, l := range row {
				t[i] = l.Val
			}
		} else {
			for i := range t {
				t[i] = relation.Null()
			}
			for j, l := range row {
				t[idx[j]] = l.Val
			}
		}
		if err := clone.Insert(t); err != nil {
			return nil, err
		}
		inserted = append(inserted, t)
	}
	m.Inserted = inserted
	cat.Put(clone)
	return m, nil
}

func applyDelete(cat *storage.Catalog, st *sqlparse.Delete) (*Mutation, error) {
	rel, err := cat.Get(st.Table)
	if err != nil {
		return nil, err
	}
	clone := rel.Clone()
	m := &Mutation{Kind: "delete", Table: clone.Name(), Schema: clone.Schema()}

	pred := func(relation.Tuple) bool { return true }
	if st.Where != nil {
		pred, err = compilePred(clone.Schema(), clone.Name(), st.Where)
		if err != nil {
			return nil, err
		}
	}
	var deleted []relation.Tuple
	for _, t := range clone.Rows() {
		if pred(t) {
			deleted = append(deleted, t.Clone())
		}
	}
	m.Deleted = deleted
	clone.Delete(pred)
	cat.Put(clone)
	return m, nil
}

func applyUpdate(cat *storage.Catalog, st *sqlparse.Update) (*Mutation, error) {
	rel, err := cat.Get(st.Table)
	if err != nil {
		return nil, err
	}
	clone := rel.Clone()
	schema := clone.Schema()
	m := &Mutation{Kind: "update", Table: clone.Name(), Schema: schema}

	// Resolve and type-check every assignment before touching a row, so
	// a bad SET list cannot leave the clone half-updated.
	type binding struct {
		col int
		val relation.Value
	}
	assigns := make([]binding, len(st.Set))
	seen := make(map[int]bool)
	for i, a := range st.Set {
		ci, ok := schema.Index(a.Column)
		if !ok {
			return nil, fmt.Errorf("query: table %s has no column %q", clone.Name(), a.Column)
		}
		if seen[ci] {
			return nil, fmt.Errorf("query: column %q assigned twice", a.Column)
		}
		seen[ci] = true
		if !a.Val.Val.Conforms(schema.Col(ci).Type) {
			return nil, fmt.Errorf("query: value %s does not conform to column %s %s",
				a.Val.Val.GoString(), schema.Col(ci).Name, schema.Col(ci).Type)
		}
		assigns[i] = binding{col: ci, val: a.Val.Val}
	}

	pred := func(relation.Tuple) bool { return true }
	if st.Where != nil {
		pred, err = compilePred(schema, clone.Name(), st.Where)
		if err != nil {
			return nil, err
		}
	}
	var inserted, deleted []relation.Tuple
	for i := 0; i < clone.Len(); i++ {
		if !pred(clone.Row(i)) {
			continue
		}
		old := clone.Row(i)
		for _, a := range assigns {
			if err := clone.Set(i, a.col, a.val); err != nil {
				return nil, err
			}
		}
		deleted = append(deleted, old)
		inserted = append(inserted, clone.Row(i))
	}
	m.Inserted, m.Deleted = inserted, deleted
	cat.Put(clone)
	return m, nil
}

// compilePred lowers a single-table WHERE expression onto a relation
// predicate. Column references may be unqualified or qualified with the
// statement's table name; comparisons against NULL are never satisfied,
// matching the executor's comparison semantics.
func compilePred(schema *relation.Schema, table string, e sqlparse.Expr) (relation.Predicate, error) {
	switch e := e.(type) {
	case *sqlparse.Compare:
		return compileCompare(schema, table, e)
	case *sqlparse.And:
		preds := make([]relation.Predicate, len(e.Terms))
		for i, t := range e.Terms {
			p, err := compilePred(schema, table, t)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return relation.And(preds...), nil
	case *sqlparse.Or:
		preds := make([]relation.Predicate, len(e.Terms))
		for i, t := range e.Terms {
			p, err := compilePred(schema, table, t)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return relation.Or(preds...), nil
	case *sqlparse.Not:
		p, err := compilePred(schema, table, e.Term)
		if err != nil {
			return nil, err
		}
		return relation.Not(p), nil
	default:
		return nil, fmt.Errorf("query: unsupported expression %T", e)
	}
}

func compileCompare(schema *relation.Schema, table string, cmp *sqlparse.Compare) (relation.Predicate, error) {
	resolveCol := func(c sqlparse.Col) (int, error) {
		if c.Table != "" && !strings.EqualFold(c.Table, table) {
			return 0, fmt.Errorf("query: unknown table %q in single-table mutation over %s", c.Table, table)
		}
		ci, ok := schema.Index(c.Column)
		if !ok {
			return 0, fmt.Errorf("query: table %s has no column %q", table, c.Column)
		}
		return ci, nil
	}
	lc, lIsCol := cmp.L.(sqlparse.Col)
	rc, rIsCol := cmp.R.(sqlparse.Col)
	ll, lIsLit := cmp.L.(sqlparse.Lit)
	rl, rIsLit := cmp.R.(sqlparse.Lit)
	holds, err := relation.CompareOp(cmp.Op)
	if err != nil {
		return nil, err
	}
	switch {
	case lIsCol && rIsLit:
		ci, err := resolveCol(lc)
		if err != nil {
			return nil, err
		}
		return relation.Cmp(schema, schema.Col(ci).Name, cmp.Op, rl.Val)
	case rIsCol && lIsLit:
		ci, err := resolveCol(rc)
		if err != nil {
			return nil, err
		}
		return relation.Cmp(schema, schema.Col(ci).Name, relation.FlipOp(cmp.Op), ll.Val)
	case lIsCol && rIsCol:
		li, err := resolveCol(lc)
		if err != nil {
			return nil, err
		}
		ri, err := resolveCol(rc)
		if err != nil {
			return nil, err
		}
		return func(t relation.Tuple) bool {
			c, err := t[li].Compare(t[ri])
			return err == nil && holds(c)
		}, nil
	case lIsLit && rIsLit:
		c, err := ll.Val.Compare(rl.Val)
		hold := err == nil && holds(c)
		return func(relation.Tuple) bool { return hold }, nil
	default:
		return nil, fmt.Errorf("query: unsupported comparison %s", cmp)
	}
}
