// The mutation executor: INSERT, DELETE, and UPDATE against a catalog.
// Statements execute copy-on-write — the target relation is deep-cloned,
// the clone is mutated and Put back, and nothing is published until the
// statement has fully succeeded. Snapshots holding the previous catalog
// therefore never observe a partial mutation, which is what lets the
// core layer run the write path alongside lock-free readers.

package query

import (
	"fmt"

	"intensional/internal/exec"
	"intensional/internal/quel"
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

	pred, err := wherePred(cat, clone, st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	var deleted []relation.Tuple
	for _, t := range clone.Rows() {
		if pred(t) {
			deleted = append(deleted, t.Clone())
		}
	}
	m.Deleted = deleted
	clone.Delete(relation.Predicate(pred))
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

	pred, err := wherePred(cat, clone, st.Table, st.Where)
	if err != nil {
		return nil, err
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

// wherePred compiles a DELETE or UPDATE WHERE clause with the binder,
// lowering and qualification compiler SELECT uses, so a mutation and
// SELECT ... WHERE with the same condition select the same rows. The
// statement still scans the whole relation: planning an access path
// would build an index the write immediately invalidates. A nil clause
// selects every row.
func wherePred(cat *storage.Catalog, rel *relation.Relation, table string, where sqlparse.Expr) (exec.Pred, error) {
	if where == nil {
		return func(relation.Tuple) bool { return true }, nil
	}
	b, err := newBinder(cat, []sqlparse.TableRef{{Table: table}})
	if err != nil {
		return nil, err
	}
	e, err := lowerExpr(b, where)
	if err != nil {
		return nil, err
	}
	return quel.CompileQual(table, rel, e)
}
