// Package induct implements the paper's Inductive Learning Subsystem
// (Section 5.2): model-based rule induction over the database, driven by
// the schema knowledge in the intelligent data dictionary. For every
// candidate attribute pair X→Y it runs the four-step Rule Induction
// Algorithm of Section 5.2.1 and prunes the result with the Nc support
// threshold. The algorithm is a function of the (X, Y) pairs in X
// order, so it runs as one ordered pass over the source's X column
// index. The QUEL statements the paper gives are kept executable
// (InducePairQUEL): they are the oracle the pass is tested against, and
// they induce a column the index refuses.
package induct

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"intensional/internal/dict"
	"intensional/internal/quel"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// Options configure induction.
type Options struct {
	// Nc is the absolute pruning threshold: rules satisfied by fewer than
	// Nc database instances are dropped (Section 5.2.1 step 4). Zero or
	// one keeps every rule.
	Nc int
	// NcFraction, when positive, sets the threshold as a fraction of the
	// source relation's size; the effective threshold is
	// max(Nc, ceil(NcFraction·|relation|)).
	NcFraction float64
	// Workers is the number of goroutines InduceAll spreads candidate
	// pairs over. Zero (the default) uses runtime.GOMAXPROCS(0); one
	// reproduces the historical serial behaviour. The induced rule set —
	// rules, numbering, and supports — is identical at every setting:
	// candidate pairs are independent, and results are committed to the
	// set in candidate order regardless of completion order.
	Workers int
}

// workers resolves the effective worker count, capped by the number of
// independent work items.
func (o Options) workers(items int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) effectiveNc(sourceSize int) int {
	nc := o.Nc
	if o.NcFraction > 0 {
		f := int(math.Ceil(o.NcFraction * float64(sourceSize)))
		if f > nc {
			nc = f
		}
	}
	return nc
}

// Pair is one candidate rule scheme X→Y together with the relation (base
// table or materialised join) it is induced from. XCol/YCol name the
// columns of Source; X/Y identify the attributes in induced clauses.
type Pair struct {
	Source *relation.Relation
	XCol   string
	YCol   string
	X, Y   rules.AttrRef
}

// Scheme returns the pair's rule scheme.
func (p Pair) Scheme() rules.Scheme { return rules.Scheme{X: p.X, Y: p.Y} }

// Inducer runs rule induction against a dictionary's catalog. An Inducer
// is safe for concurrent use: induction only reads the catalog, and the
// materialised-join cache it keeps is lock-protected.
type Inducer struct {
	d    *dict.Dictionary
	opts Options

	// matMu guards matCache, the per-relationship memo of materialise.
	// N candidate pairs over one relationship share one joined relation
	// instead of rebuilding the same multi-way join N times; the cached
	// relation and column map are immutable by contract (readers never
	// mutate them, and nothing else holds a reference).
	matMu    sync.Mutex
	matCache map[string]*materialised // guarded by matMu
}

// materialised is one cached relationship join: the wide relation, the
// attribute-key → column-name map describing it, and the base relations
// (with versions) it was built from, for staleness checks.
type materialised struct {
	joined *relation.Relation
	colFor map[string]string
	deps   []matDep
}

// matDep pins one base relation a cached join depends on.
type matDep struct {
	name    string
	rel     *relation.Relation
	version uint64
}

// New creates an inducer.
func New(d *dict.Dictionary, opts Options) *Inducer {
	return &Inducer{d: d, opts: opts, matCache: make(map[string]*materialised)}
}

// InducePair runs the four-step Rule Induction Algorithm for one
// attribute pair and returns the surviving rules (unnumbered).
func (in *Inducer) InducePair(p Pair) ([]*rules.Rule, error) {
	return in.InducePairContext(context.Background(), p)
}

// InducePairContext is InducePair with a deadline. The algorithm is a
// function of the source's (X, Y) pairs in X order, so it runs as one
// ordered pass over the source's X column index (inducePairOrdered),
// which checks ctx at the start and every ctxCheckGroups groups of
// equal X. A column the index refuses (NaN or mixed kinds), or a Y
// value with no order against its group's, has no pass to run; the
// paper's QUEL statements (InducePairQUEL) induce such a pair.
func (in *Inducer) InducePairContext(ctx context.Context, p Pair) ([]*rules.Rule, error) {
	xi, yi, err := p.columns()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ix, err := p.Source.Index(xi); err == nil {
		if out, ok, err := in.inducePairOrdered(ctx, p, ix, yi); ok || err != nil {
			return out, err
		}
	}
	return in.InducePairQUEL(ctx, p)
}

// columns resolves the pair's X and Y column positions in its source.
func (p Pair) columns() (xi, yi int, err error) {
	xi, ok := p.Source.Schema().Index(p.XCol)
	if !ok {
		return 0, 0, fmt.Errorf("induct: source %s has no column %q", p.Source.Name(), p.XCol)
	}
	yi, ok = p.Source.Schema().Index(p.YCol)
	if !ok {
		return 0, 0, fmt.Errorf("induct: source %s has no column %q", p.Source.Name(), p.YCol)
	}
	return xi, yi, nil
}

// ctxCheckGroups is how many X groups the ordered pass walks between
// two checks of its context.
const ctxCheckGroups = 4096

// inducePairOrdered is Section 5.2.1 as one walk over ix, the source's
// sorted index on X (ties in row order), one group of equal X at a time:
//
//   - Step 1's (X, Y) pairs are the group's rows whose Y is not null. A
//     group with none never reaches the algorithm: it neither extends
//     nor breaks a run.
//   - Step 2: a group whose Ys differ is inconsistent, and breaks the
//     current run.
//   - Step 3: a consistent group whose Y equals the current run's
//     extends it; any other starts a new run. A run's support is its
//     groups' row count.
//   - Step 4 prunes runs below the threshold, taken over every row with
//     both X and Y.
//
// A group's X and Y are those of its first row with a Y, as the QUEL
// statements keep the first occurrence. ok is false, with no rules, when
// a Y is NaN or incomparable with its group's first: Y equality is then
// not an equivalence, and only the statements define the answer.
func (in *Inducer) inducePairOrdered(ctx context.Context, p Pair, ix *relation.Index, yi int) (out []*rules.Rule, ok bool, err error) {
	type run struct {
		y       relation.Value
		lo, hi  relation.Value
		support int
	}
	var runs []run
	open := false // the last run may still be extended
	total := 0    // rows with both X and Y
	n := ix.Len()
	for pos, groups := 0, 0; pos < n; groups++ {
		if groups%ctxCheckGroups == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		first := ix.Value(pos)
		var x, y relation.Value
		count, consistent := 0, true
		for ; pos < n; pos++ {
			xv := ix.Value(pos)
			if !xv.Equal(first) {
				break
			}
			yv := p.Source.Row(ix.Row(pos))[yi]
			switch {
			case yv.IsNull():
				continue
			case yv.IsNaN():
				return nil, false, nil
			case count == 0:
				x, y = xv, yv
			case !yv.Comparable(y):
				return nil, false, nil
			case !yv.Equal(y):
				consistent = false
			}
			count++
		}
		total += count
		switch {
		case count == 0:
		case !consistent:
			open = false
		case open && runs[len(runs)-1].y.Equal(y):
			runs[len(runs)-1].hi = x
			runs[len(runs)-1].support += count
		default:
			runs = append(runs, run{y: y, lo: x, hi: x, support: count})
			open = true
		}
	}
	nc := in.opts.effectiveNc(total)
	for _, r := range runs {
		if r.support < nc {
			continue
		}
		out = append(out, &rules.Rule{
			LHS:     []rules.Clause{rules.RangeClause(p.X, r.lo, r.hi)},
			RHS:     rules.PointClause(p.Y, r.y),
			Support: r.support,
		})
	}
	return out, true, nil
}

// InducePairQUEL runs the four-step Rule Induction Algorithm for one
// attribute pair as the paper states it: the QUEL statements of Section
// 5.2.1 over a private scratch catalog holding the pair's (X, Y)
// projection, whose retrieves honour ctx at batch boundaries. It is the
// reference the ordered pass is tested against, and induces the pairs
// whose X column the index refuses.
func (in *Inducer) InducePairQUEL(ctx context.Context, p Pair) ([]*rules.Rule, error) {
	xi, yi, err := p.columns()
	if err != nil {
		return nil, err
	}

	// Materialise the (X, Y) projection under canonical column names so
	// the paper's QUEL statements apply verbatim.
	base := relation.New("BASE", relation.MustSchema(
		relation.Column{Name: "X", Type: p.Source.Schema().Col(xi).Type},
		relation.Column{Name: "Y", Type: p.Source.Schema().Col(yi).Type},
	))
	for _, t := range p.Source.Rows() {
		if t[xi].IsNull() || t[yi].IsNull() {
			continue // null values carry no classification evidence
		}
		if err := base.Insert(relation.Tuple{t[xi], t[yi]}); err != nil {
			return nil, err
		}
	}

	scratch := storage.NewCatalog()
	scratch.Put(base)
	sess := quel.NewSession(quel.NewPlanner(scratch, nil, nil))
	steps := []string{
		// Step 1: retrieve the (X, Y) value pairs.
		"range of r is BASE",
		"retrieve into S unique (r.Y, r.X) sort by r.Y",
		// Step 2: remove inconsistent (X, Y) value pairs.
		"range of s is S",
		"retrieve into T unique (s.Y, s.X) where (r.X = s.X and r.Y != s.Y)",
		"range of t is T",
		"delete s where (s.X = t.X and s.Y = t.Y)",
	}
	for _, stmt := range steps {
		if _, err := sess.ExecContext(ctx, stmt); err != nil {
			return nil, fmt.Errorf("induct: %s → %s: %w", p.X, p.Y, err)
		}
	}
	surviving, err := scratch.Get("S")
	if err != nil {
		return nil, err
	}

	// Step 3: construct rules. A value range is a consecutive sequence of
	// X values occurring in the database; an X value removed as
	// inconsistent breaks the run (it occurs but has no single Y).
	yFor := make(map[string]relation.Value, surviving.Len())
	for _, t := range surviving.Rows() {
		yFor[t[1].Key()] = t[0] // S columns are (Y, X)
	}
	xs, err := distinctSorted(base, "X")
	if err != nil {
		return nil, err
	}
	// Occurrences per X value, so run support accumulates in one pass.
	occurs := make(map[string]int, len(xs))
	for _, t := range base.Rows() {
		occurs[t[0].Key()]++
	}

	type run struct {
		y       relation.Value
		lo, hi  relation.Value
		support int
	}
	var runs []run
	var cur *run
	for _, x := range xs {
		y, consistent := yFor[x.Key()]
		if !consistent {
			cur = nil
			continue
		}
		if cur != nil && cur.y.Equal(y) {
			cur.hi = x
			cur.support += occurs[x.Key()]
			continue
		}
		runs = append(runs, run{y: y, lo: x, hi: x, support: occurs[x.Key()]})
		cur = &runs[len(runs)-1]
	}

	// Step 4: prune by support, counted as the number of source instances
	// the rule is satisfied by.
	nc := in.opts.effectiveNc(base.Len())
	var out []*rules.Rule
	for _, r := range runs {
		if r.support < nc {
			continue
		}
		out = append(out, &rules.Rule{
			LHS:     []rules.Clause{rules.RangeClause(p.X, r.lo, r.hi)},
			RHS:     rules.PointClause(p.Y, r.y),
			Support: r.support,
		})
	}
	return out, nil
}

// InduceCharacteristics derives the per-class classification
// characteristics of Section 3.1 — for every distinct value y of the
// class column, the observed value range of another attribute:
//
//	if classAttr = y then lo <= valueAttr <= hi
//
// This is the rule form behind Table 1 ("the displacement of an Attack
// Aircraft Carrier is in the range 75,700–81,600 tons") and behind
// backward inference from a subtype to its attribute ranges. Support is
// the number of instances of the class; classes below the Nc threshold
// are pruned.
func (in *Inducer) InduceCharacteristics(src *relation.Relation, classCol, valueCol string, classAttr, valueAttr rules.AttrRef) ([]*rules.Rule, error) {
	ci, ok := src.Schema().Index(classCol)
	if !ok {
		return nil, fmt.Errorf("induct: source %s has no column %q", src.Name(), classCol)
	}
	vi, ok := src.Schema().Index(valueCol)
	if !ok {
		return nil, fmt.Errorf("induct: source %s has no column %q", src.Name(), valueCol)
	}
	type agg struct {
		class   relation.Value
		lo, hi  relation.Value
		support int
	}
	groups := map[string]*agg{}
	var order []string
	for _, t := range src.Rows() {
		c, v := t[ci], t[vi]
		if c.IsNull() || v.IsNull() {
			continue
		}
		k := c.Key()
		g, ok := groups[k]
		if !ok {
			groups[k] = &agg{class: c, lo: v, hi: v, support: 1}
			order = append(order, k)
			continue
		}
		g.support++
		if cmp, err := v.Compare(g.lo); err == nil && cmp < 0 {
			g.lo = v
		}
		if cmp, err := v.Compare(g.hi); err == nil && cmp > 0 {
			g.hi = v
		}
	}
	nc := in.opts.effectiveNc(src.Len())
	var out []*rules.Rule
	for _, k := range order {
		g := groups[k]
		if g.support < nc {
			continue
		}
		out = append(out, &rules.Rule{
			LHS:     []rules.Clause{rules.PointClause(classAttr, g.class)},
			RHS:     rules.RangeClause(valueAttr, g.lo, g.hi),
			Support: g.support,
		})
	}
	return out, nil
}

// distinctSorted returns the distinct values of a column in ascending
// order.
func distinctSorted(r *relation.Relation, col string) ([]relation.Value, error) {
	vals, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(vals))
	out := make([]relation.Value, 0, len(vals))
	for _, v := range vals {
		if _, dup := seen[v.Key()]; dup {
			continue
		}
		seen[v.Key()] = struct{}{}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// CandidatePairs generates the schema-guided candidate attribute pairs of
// Section 3.2:
//
//   - Intra-object pairs: for every declared hierarchy, each attribute of
//     the object (except the classifying attribute itself) against the
//     classifying attribute.
//   - Inter-object pairs: for every relationship, the participants'
//     identifying attributes (the join attribute and the classifying
//     attribute) against the other participant's classifying attribute —
//     including classifying attributes lifted through hierarchy-level
//     links (e.g. SONAR.Sonar → CLASS.Type through SUBMARINE).
//
// ctx bounds the relationship joins the inter-object pairs are drawn
// from.
func (in *Inducer) CandidatePairs(ctx context.Context) ([]Pair, error) {
	var out []Pair
	cat := in.d.Catalog()

	for _, h := range in.d.Hierarchies() {
		rel, err := cat.Get(h.Object)
		if err != nil {
			return nil, err
		}
		for _, col := range rel.Schema().Columns() {
			if strings.EqualFold(col.Name, h.ClassifyingAttr) {
				continue
			}
			out = append(out, Pair{
				Source: rel,
				XCol:   col.Name,
				YCol:   h.ClassifyingAttr,
				X:      rules.Attr(rel.Name(), col.Name),
				Y:      h.Attr(),
			})
		}
	}

	for _, r := range in.d.Relationships() {
		joined, colFor, err := in.materialise(ctx, r)
		if err != nil {
			return nil, err
		}
		parts := r.Participants()
		for _, a := range parts {
			xAttrs := in.identifyingAttrs(a, r)
			for _, b := range parts {
				if strings.EqualFold(a, b) {
					continue
				}
				for _, y := range in.classifyingChain(b) {
					yCol, ok := colFor[y.Key()]
					if !ok {
						continue
					}
					for _, x := range xAttrs {
						xCol, ok := colFor[x.Key()]
						if !ok {
							continue
						}
						out = append(out, Pair{
							Source: joined,
							XCol:   xCol,
							YCol:   yCol,
							X:      x,
							Y:      y,
						})
					}
				}
			}
		}
	}
	return out, nil
}

// identifyingAttrs returns the attributes of a participant that serve as
// rule premises: its join attribute in the relationship and its
// classifying attribute.
func (in *Inducer) identifyingAttrs(object string, r *dict.Relationship) []rules.AttrRef {
	var out []rules.AttrRef
	add := func(a rules.AttrRef) {
		for _, x := range out {
			if x.EqualFold(a) {
				return
			}
		}
		out = append(out, a)
	}
	for _, l := range r.Links {
		if strings.EqualFold(l.To.Relation, object) {
			add(l.To)
		}
	}
	if h, ok := in.d.Hierarchy(object); ok {
		add(h.Attr())
	}
	return out
}

// classifyingChain returns the classifying attribute of the object and of
// every hierarchy level above it.
func (in *Inducer) classifyingChain(object string) []rules.AttrRef {
	var out []rules.AttrRef
	cur := object
	for depth := 0; depth < 8; depth++ { // bounded against accidental cycles
		if h, ok := in.d.Hierarchy(cur); ok {
			out = append(out, h.Attr())
		}
		link, ok := in.d.LevelAbove(cur)
		if !ok {
			break
		}
		cur = link.To.Relation
	}
	return out
}

// materialise returns the relationship's wide join, memoised per
// relationship: the first call builds it, later calls (other candidate
// pairs, InduceComparisons, repeated InduceAll runs) share the cached
// relation. The cached join is immutable by contract — every consumer
// only reads it. Cache entries self-invalidate when a base relation they
// were built from is mutated or replaced in the catalog.
func (in *Inducer) materialise(ctx context.Context, r *dict.Relationship) (*relation.Relation, map[string]string, error) {
	in.matMu.Lock()
	defer in.matMu.Unlock()
	k := strings.ToLower(r.Name)
	if m, ok := in.matCache[k]; ok && m.fresh(in.d.Catalog()) {
		return m.joined, m.colFor, nil
	}
	m, err := in.buildJoin(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	in.matCache[k] = m
	return m.joined, m.colFor, nil
}

// fresh reports whether every base relation the join was built from is
// still the same object at the same mutation version.
func (m *materialised) fresh(cat *storage.Catalog) bool {
	for _, d := range m.deps {
		rel, err := cat.Get(d.name)
		if err != nil || rel != d.rel || rel.Version() != d.version {
			return false
		}
	}
	return true
}

// buildJoin joins the relationship relation with all participants (and
// the hierarchy levels above them) into one wide relation whose columns
// are qualified "Relation.Attribute". colFor maps attribute keys to the
// joined column names. The join is one QUEL retrieve over the
// dictionary's catalog — each relation ranged by a variable of its own
// name, every column a target renamed "Relation.Attribute", every link an
// equality conjunct — planned and executed like any other query, the way
// the paper's ILS issues its statements to the same INGRES that answers
// the user.
func (in *Inducer) buildJoin(ctx context.Context, r *dict.Relationship) (*materialised, error) {
	cat := in.d.Catalog()
	ranges := map[string]string{}
	where := &quel.AndExpr{}
	st := &quel.RetrieveStmt{Where: where}
	var deps []matDep
	colFor := map[string]string{}
	joinedRels := map[string]bool{}
	add := func(relName string) error {
		rel, err := cat.Get(relName)
		if err != nil {
			return err
		}
		ranges[strings.ToLower(relName)] = relName
		deps = append(deps, matDep{name: relName, rel: rel, version: rel.Version()})
		joinedRels[strings.ToLower(relName)] = true
		for _, c := range rel.Schema().Columns() {
			name := rel.Name() + "." + c.Name
			st.Target = append(st.Target, quel.Target{As: name, Col: quel.ColRef{Var: relName, Attr: c.Name}})
			colFor[rules.Attr(relName, c.Name).Key()] = name
		}
		return nil
	}
	if err := add(r.Name); err != nil {
		return nil, err
	}
	var attach func(link dict.Link) error
	attach = func(link dict.Link) error {
		target := link.To.Relation
		if joinedRels[strings.ToLower(target)] {
			return nil
		}
		if err := add(target); err != nil {
			return err
		}
		where.Terms = append(where.Terms, &quel.BinExpr{Op: "=",
			L: quel.ColOperand{Col: quel.ColRef{Var: link.From.Relation, Attr: link.From.Attribute}},
			R: quel.ColOperand{Col: quel.ColRef{Var: target, Attr: link.To.Attribute}},
		})
		// Climb hierarchy levels above the newly attached entity.
		if up, ok := in.d.LevelAbove(target); ok {
			return attach(up)
		}
		return nil
	}
	for _, link := range r.Links {
		if err := attach(link); err != nil {
			return nil, err
		}
	}
	rp, err := quel.NewPlanner(cat, nil, nil).PlanRetrieve(st, ranges)
	if err != nil {
		return nil, err
	}
	joined, err := rp.Tree.Run(ctx, r.Name)
	if err != nil {
		return nil, err
	}
	return &materialised{joined: joined, colFor: colFor, deps: deps}, nil
}

// InduceAll generates candidates, induces every pair, prunes, and returns
// the numbered rule set — the knowledge base contents.
//
// Candidate pairs are induced concurrently on Options.Workers goroutines
// (levelwise relational rule mining is embarrassingly parallel across
// rule schemes: each pair reads shared immutable sources and their
// shared column indexes, and builds only its own runs). Determinism is preserved by committing
// per-pair results to the set in candidate order after the fan-out, so
// rule numbering and supports are identical at every worker count.
func (in *Inducer) InduceAll() (*rules.Set, error) {
	return in.InduceAllContext(context.Background())
}

// InduceAllContext is InduceAll with a deadline, threaded through the
// relationship joins and every pair's induction.
func (in *Inducer) InduceAllContext(ctx context.Context) (*rules.Set, error) {
	pairs, err := in.CandidatePairs(ctx)
	if err != nil {
		return nil, err
	}
	results, err := in.InducePairsContext(ctx, pairs)
	if err != nil {
		return nil, err
	}
	set := rules.NewSet()
	for _, rs := range results {
		for _, r := range rs {
			set.Add(r)
		}
	}
	return set, nil
}

// InducePairsContext induces the given candidate pairs on the configured
// worker pool and returns the per-pair rule lists in input order
// (unnumbered — the caller commits them to a set). Re-induction uses it
// to induce only the schemes a mutation touched, with the same
// parallelism and determinism guarantees as InduceAll. ctx is the
// deadline shared by every worker's induction.
func (in *Inducer) InducePairsContext(ctx context.Context, pairs []Pair) ([][]*rules.Rule, error) {
	results := make([][]*rules.Rule, len(pairs))
	errs := make([]error, len(pairs))
	if w := in.opts.workers(len(pairs)); w <= 1 {
		for i, p := range pairs {
			if results[i], errs[i] = in.InducePairContext(ctx, p); errs[i] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					results[i], errs[i] = in.InducePairContext(ctx, pairs[i])
				}
			}()
		}
		for i := range pairs {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	// Report the first failure in candidate order, matching what the
	// serial pipeline would have surfaced.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
