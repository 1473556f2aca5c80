package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"intensional/internal/relation"
)

func sampleCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	s := relation.MustSchema(
		relation.Column{Name: "Class", Type: relation.TString},
		relation.Column{Name: "Displacement", Type: relation.TInt},
		relation.Column{Name: "Ratio", Type: relation.TFloat},
	)
	r, err := c.Create("CLASS", s)
	if err != nil {
		t.Fatal(err)
	}
	r.MustInsert(relation.String("0101"), relation.Int(16600), relation.Float(1.5))
	r.MustInsert(relation.String("0102"), relation.Int(7250), relation.Float(0.25))
	r.MustInsert(relation.Null(), relation.Null(), relation.Null())
	r.MustInsert(relation.String(`\N`), relation.Int(1), relation.Float(0)) // literal backslash-N
	return c
}

func TestCatalogCRUD(t *testing.T) {
	c := sampleCatalog(t)
	if !c.Has("class") {
		t.Error("Has should be case-insensitive")
	}
	if _, err := c.Get("CLASS"); err != nil {
		t.Error(err)
	}
	if _, err := c.Get("missing"); err == nil {
		t.Error("Get missing should error")
	}
	if _, err := c.Create("class", relation.MustSchema(relation.Column{Name: "X"})); err == nil {
		t.Error("Create duplicate (case-insensitive) should error")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "CLASS" {
		t.Errorf("Names = %v", got)
	}
	if err := c.Drop("Class"); err != nil {
		t.Error(err)
	}
	if err := c.Drop("Class"); err == nil {
		t.Error("double Drop should error")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := sampleCatalog(t)
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := c.Get("CLASS")
	got, err := loaded.Get("CLASS")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(orig.Schema()) {
		t.Fatalf("schema mismatch: %s vs %s", got.Schema(), orig.Schema())
	}
	if got.Len() != orig.Len() {
		t.Fatalf("row count %d, want %d", got.Len(), orig.Len())
	}
	for i := range orig.Rows() {
		for j := range orig.Row(i) {
			a, b := orig.Row(i)[j], got.Row(i)[j]
			if a.IsNull() != b.IsNull() || (!a.IsNull() && !a.Equal(b)) {
				t.Errorf("row %d col %d: %#v != %#v", i, j, a, b)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("Load of empty dir should error (no manifest)")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load of corrupt manifest should error")
	}
}

func TestLoadBadCell(t *testing.T) {
	dir := t.TempDir()
	man := `{"relations":[{"name":"R","file":"r.csv","columns":[{"name":"N","type":"int"}]}]}`
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "r.csv"), []byte("N\nnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load with unparseable cell should error")
	}
}

func TestLoadUnknownType(t *testing.T) {
	dir := t.TempDir()
	man := `{"relations":[{"name":"R","file":"r.csv","columns":[{"name":"N","type":"blob"}]}]}`
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load with unknown column type should error")
	}
}

// TestCatalogConcurrentAccess stresses the catalog's locking: concurrent
// creators, readers, and droppers must not race (validated under
// go test -race).
func TestCatalogConcurrentAccess(t *testing.T) {
	c := NewCatalog()
	schema := relation.MustSchema(relation.Column{Name: "A", Type: relation.TInt})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("rel_%d_%d", w, i)
				if _, err := c.Create(name, schema); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if _, err := c.Get(name); err != nil {
					t.Errorf("get %s: %v", name, err)
					return
				}
				_ = c.Names()
				_ = c.Len()
				if i%3 == 0 {
					if err := c.Drop(name); err != nil {
						t.Errorf("drop %s: %v", name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Each worker dropped 17 of its 50 relations.
	if got := c.Len(); got != 8*(50-17) {
		t.Errorf("final catalog size = %d, want %d", got, 8*(50-17))
	}
}

func TestFileForSanitises(t *testing.T) {
	// Plain alphanumeric names keep their historical stable filename.
	if got := fileFor("CLASS"); got != "class.csv" {
		t.Errorf("fileFor(CLASS) = %q", got)
	}
	// Sanitised names carry a hash suffix disambiguating the original.
	got := fileFor("My Weird/Name⋈X")
	if !strings.HasPrefix(got, "my_weird_name_x_") || !strings.HasSuffix(got, ".csv") {
		t.Errorf("fileFor = %q, want my_weird_name_x_<hash>.csv", got)
	}
	if fileFor("SHIP_CLASS") == fileFor("SHIP-CLASS") {
		t.Error("names sanitising to the same stem must map to distinct files")
	}
	if fileFor("SHIP_CLASS") != fileFor("SHIP_CLASS") {
		t.Error("fileFor must be deterministic")
	}
}

// TestSaveCollidingNamesRoundtrip is the regression test for the silent
// CSV overwrite: SHIP_CLASS and SHIP-CLASS both sanitise to ship_class,
// and before hash disambiguation the second Save clobbered the first
// relation's file. Both must survive a Save/Load round trip.
func TestSaveCollidingNamesRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCatalog()
	s := relation.MustSchema(relation.Column{Name: "V", Type: relation.TString})
	a, err := c.Create("SHIP_CLASS", s)
	if err != nil {
		t.Fatal(err)
	}
	a.MustInsert(relation.String("underscore"))
	b, err := c.Create("SHIP-CLASS", s)
	if err != nil {
		t.Fatal(err)
	}
	b.MustInsert(relation.String("dash"))

	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"SHIP_CLASS": "underscore", "SHIP-CLASS": "dash"} {
		r, err := loaded.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Len() != 1 || !r.Row(0)[0].Equal(relation.String(want)) {
			t.Errorf("%s round-tripped as %v, want [%s]", name, r.Rows(), want)
		}
	}
}
