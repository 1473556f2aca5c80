package dict_test

import (
	"testing"

	"intensional/internal/dict"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/shipdb"
	"intensional/internal/storage"
)

func shipDict(t *testing.T) *dict.Dictionary {
	t.Helper()
	d, err := shipdb.Dictionary(shipdb.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestHierarchies(t *testing.T) {
	d := shipDict(t)
	h, ok := d.Hierarchy("CLASS")
	if !ok {
		t.Fatal("CLASS hierarchy missing")
	}
	if h.Attr().String() != "CLASS.Type" {
		t.Errorf("classifying attr = %s", h.Attr())
	}
	if name, ok := h.SubtypeFor(relation.String("SSBN")); !ok || name != "SSBN" {
		t.Errorf("SubtypeFor(SSBN) = %q, %v", name, ok)
	}
	if _, ok := h.SubtypeFor(relation.String("XX")); ok {
		t.Error("unknown value should not resolve")
	}
	if v, ok := h.ValueFor("ssn"); !ok || !v.Equal(relation.String("SSN")) {
		t.Errorf("ValueFor(ssn) = %v, %v", v, ok)
	}
	if got := len(d.Hierarchies()); got != 3 {
		t.Errorf("hierarchies = %d, want 3", got)
	}
	if name, ok := d.SubtypeName("SUBMARINE", relation.String("0101")); !ok || name != "C0101" {
		t.Errorf("SubtypeName = %q, %v", name, ok)
	}
	if _, ok := d.SubtypeName("TYPE", relation.String("SSN")); ok {
		t.Error("TYPE has no hierarchy")
	}
}

func TestRelationshipsAndLevels(t *testing.T) {
	d := shipDict(t)
	rels := d.Relationships()
	if len(rels) != 1 || rels[0].Name != "INSTALL" {
		t.Fatalf("relationships = %v", rels)
	}
	parts := rels[0].Participants()
	if len(parts) != 2 || parts[0] != "SUBMARINE" || parts[1] != "SONAR" {
		t.Errorf("participants = %v", parts)
	}
	link, ok := d.LevelAbove("SUBMARINE")
	if !ok || link.To.String() != "CLASS.Class" {
		t.Errorf("LevelAbove = %v, %v", link, ok)
	}
	if _, ok := d.LevelAbove("SONAR"); ok {
		t.Error("SONAR has no level above")
	}
}

// TestActiveDomain: snapping the unbounded interval yields an
// attribute's active domain, the observed [min..max] the inference
// processor clips conditions to (Example 1).
func TestActiveDomain(t *testing.T) {
	d := shipDict(t)
	iv, ok, err := d.SnapToObserved(rules.Attr("CLASS", "Displacement"), rules.Everything())
	if err != nil || !ok {
		t.Fatalf("active domain: ok=%v err=%v", ok, err)
	}
	if got := iv.String(); got != "[2145..30000]" {
		t.Errorf("active domain = %s", got)
	}
	if _, _, err := d.SnapToObserved(rules.Attr("NOPE", "X"), rules.Everything()); err == nil {
		t.Error("unknown relation should error")
	}
	if _, _, err := d.SnapToObserved(rules.Attr("CLASS", "Nope"), rules.Everything()); err == nil {
		t.Error("unknown attribute should error")
	}
}

// unclassified returns the classifying values of object's rows that no
// declared subtype names.
func unclassified(t *testing.T, d *dict.Dictionary, object string) []relation.Value {
	t.Helper()
	h, ok := d.Hierarchy(object)
	if !ok {
		t.Fatalf("no hierarchy on %s", object)
	}
	rel, err := d.Catalog().Get(object)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rel.Column(h.ClassifyingAttr)
	if err != nil {
		t.Fatal(err)
	}
	var missing []relation.Value
	for _, v := range vals {
		if _, ok := h.SubtypeFor(v); !ok {
			missing = append(missing, v)
		}
	}
	return missing
}

// TestValidateHierarchy checks the Section 2 partition property on the
// test bed: every stored instance's classifying value names exactly one
// declared subtype, and an unclassified value shows.
func TestValidateHierarchy(t *testing.T) {
	d := shipDict(t)
	for _, obj := range []string{"SUBMARINE", "CLASS", "SONAR"} {
		if missing := unclassified(t, d, obj); len(missing) != 0 {
			t.Errorf("%s hierarchy misses values %v", obj, missing)
		}
	}
	if _, ok := d.Hierarchy("TYPE"); ok {
		t.Error("TYPE has no hierarchy")
	}
	cls, err := d.Catalog().Get("CLASS")
	if err != nil {
		t.Fatal(err)
	}
	cls.MustInsert(relation.String("7777"), relation.String("X"),
		relation.String("SSGN"), relation.Int(9000))
	if missing := unclassified(t, d, "CLASS"); len(missing) != 1 || missing[0].Str() != "SSGN" {
		t.Errorf("missing = %v", missing)
	}
}

func TestSnapToObserved(t *testing.T) {
	d := shipDict(t)
	attr := rules.Attr("CLASS", "Displacement")
	cond, err := rules.FromOp(">", relation.Int(8000))
	if err != nil {
		t.Fatal(err)
	}
	snapped, ok, err := d.SnapToObserved(attr, cond)
	if err != nil || !ok {
		t.Fatalf("snap: %v %v", ok, err)
	}
	// Observed displacements above 8000 are 16600 and 30000.
	if got := snapped.String(); got != "[16600..30000]" {
		t.Errorf("snapped = %s", got)
	}
	// A condition with no observed values reports !ok.
	empty, err := rules.FromOp("<", relation.Int(2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.SnapToObserved(attr, empty); err != nil || ok {
		t.Errorf("empty snap: ok=%v err=%v", ok, err)
	}
	// Unknown attribute errors.
	if _, _, err := d.SnapToObserved(rules.Attr("CLASS", "Nope"), cond); err == nil {
		t.Error("unknown attribute should error")
	}
	// A row written in place is observed by the next snap.
	cls, err := d.Catalog().Get("CLASS")
	if err != nil {
		t.Fatal(err)
	}
	cls.MustInsert(relation.String("7777"), relation.String("X"),
		relation.String("SSBN"), relation.Int(40000))
	if snapped, ok, _ := d.SnapToObserved(attr, cond); !ok || snapped.String() != "[16600..40000]" {
		t.Errorf("snap after insert = %s, %v; want [16600..40000]", snapped, ok)
	}
}

func TestValidationErrors(t *testing.T) {
	cat := shipdb.Catalog()
	d := dict.New(cat)
	if err := d.AddHierarchy(&dict.Hierarchy{Object: "NOPE", ClassifyingAttr: "X"}); err == nil {
		t.Error("hierarchy on unknown relation should error")
	}
	if err := d.AddHierarchy(&dict.Hierarchy{Object: "CLASS", ClassifyingAttr: "Nope"}); err == nil {
		t.Error("hierarchy on unknown attribute should error")
	}
	if err := d.AddHierarchy(&dict.Hierarchy{Object: "CLASS", ClassifyingAttr: "Type"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddHierarchy(&dict.Hierarchy{Object: "CLASS", ClassifyingAttr: "Type"}); err == nil {
		t.Error("duplicate hierarchy should error")
	}
	if err := d.AddRelationship(&dict.Relationship{Name: "NOPE"}); err == nil {
		t.Error("relationship on unknown relation should error")
	}
	if err := d.AddRelationship(&dict.Relationship{
		Name:  "INSTALL",
		Links: []dict.Link{{From: rules.Attr("INSTALL", "Nope"), To: rules.Attr("SUBMARINE", "Id")}},
	}); err == nil {
		t.Error("relationship with bad link should error")
	}
	if err := d.AddLevelLink(dict.Link{From: rules.Attr("X", "Y"), To: rules.Attr("CLASS", "Class")}); err == nil {
		t.Error("level link with unknown relation should error")
	}
}

func TestStoreLoadRules(t *testing.T) {
	d := shipDict(t)
	d.SetRules(shipdb.PaperRules())
	if _, err := d.StoreRules(); err != nil {
		t.Fatal(err)
	}
	if !d.Catalog().Has(rules.RuleRelName) {
		t.Fatal("rule relation missing from catalog")
	}
	// Save the catalog, load it elsewhere, and recover the rules — the
	// Section 5.2.2 relocation scenario.
	dir := t.TempDir()
	if err := d.Catalog().Save(dir); err != nil {
		t.Fatal(err)
	}
	cat2, err := storage.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2 := dict.New(cat2)
	if err := d2.LoadRules(); err != nil {
		t.Fatal(err)
	}
	if d2.Rules().Len() != 17 {
		t.Fatalf("recovered %d rules, want 17", d2.Rules().Len())
	}
	orig := shipdb.PaperRules().Rules()
	for i, r := range d2.Rules().Rules() {
		if !r.Equal(orig[i]) {
			t.Errorf("rule %d: %s != %s", i, r, orig[i])
		}
	}
	// StoreRules twice replaces, not duplicates.
	if _, err := d.StoreRules(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRulesMissing(t *testing.T) {
	d := dict.New(storage.NewCatalog())
	if err := d.LoadRules(); err == nil {
		t.Error("LoadRules without rule relations should error")
	}
}
