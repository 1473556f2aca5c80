package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"intensional/internal/dict"
	"intensional/internal/integrity"
	"intensional/internal/ker"
	"intensional/internal/quel"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// floatRel returns a relation T(X float) holding the single value 1.5.
func floatRel() *relation.Relation {
	r := relation.New("T", relation.MustSchema(relation.Column{Name: "X", Type: relation.TFloat}))
	r.MustInsert(relation.Float(1.5))
	return r
}

// floatCat returns a catalog holding floatRel.
func floatCat() *storage.Catalog {
	cat := storage.NewCatalog()
	cat.Put(floatRel())
	return cat
}

// TestNonFiniteFloatsRejectedAtEntry: a column's values are mutually
// comparable and finite, enforced at entry. Every way a value enters a
// float column — the Go API, QUEL, a checkpoint, the replication wire,
// the stored rule base, the dictionary and a KER schema's instances —
// refuses NaN, +Inf and -Inf with an error naming the column, and takes
// a finite value. (SQL has no literal for either; the query package's
// TestNaNColumnIndexAgreesWithScan checks its INSERT.) The index, the
// planner, the snap and induction rely on it.
func TestNonFiniteFloatsRejectedAtEntry(t *testing.T) {
	entries := []struct {
		name string
		col  string // what the error must name
		load func(t *testing.T, text string) error
	}{
		{"Insert", "column X", func(t *testing.T, text string) error {
			return floatRel().Insert(relation.Tuple{relation.Float(parseFloat(t, text))})
		}},
		{"Set", "column X", func(t *testing.T, text string) error {
			return floatRel().Set(0, 0, relation.Float(parseFloat(t, text)))
		}},
		{"QUEL append", "T.X", func(t *testing.T, text string) error {
			_, err := quel.NewSession(quel.NewPlanner(floatCat(), nil)).Exec(`append to T (X = "` + text + `")`)
			return err
		}},
		{"QUEL replace", "T.X", func(t *testing.T, text string) error {
			s := quel.NewSession(quel.NewPlanner(floatCat(), nil))
			if _, err := s.Exec("range of t is T"); err != nil {
				t.Fatal(err)
			}
			_, err := s.Exec(`replace t (X = "` + text + `")`)
			return err
		}},
		{"checkpoint load", "column X", func(t *testing.T, text string) error {
			dir := t.TempDir()
			if err := floatCat().Save(dir); err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
			if err != nil || len(files) != 1 {
				t.Fatalf("saved CSV files %v, %v", files, err)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			data = []byte(strings.Replace(string(data), "1.5", text, 1))
			if err := os.WriteFile(files[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = storage.Load(dir)
			return err
		}},
		{"replication wire", "column X", func(t *testing.T, text string) error {
			_, err := decodeRelWire(relWire{
				Name: "T",
				Cols: []relColWire{{Name: "X", Type: "float"}},
				Rows: [][]*string{{&text}},
			})
			return err
		}},
		{"rule relations", "T.X", func(t *testing.T, text string) error {
			s := rules.NewSet()
			s.Add(&rules.Rule{
				LHS: []rules.Clause{rules.RangeClause(rules.Attr("T", "X"), relation.Float(1), relation.Float(2))},
				RHS: rules.PointClause(rules.Attr("T", "Y"), relation.String("a")),
			})
			enc, err := rules.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			xNo := int64(-1)
			for _, a := range enc.Attrs.Rows() {
				if a[2].Str() == "X" {
					xNo = a[0].Int64()
				}
			}
			for i, m := range enc.Map.Rows() {
				if m[0].Int64() == xNo {
					if err := enc.Map.Set(i, 2, relation.String(text)); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			_, err = rules.Decode(enc)
			return err
		}},
		{"dictionary", "T.X", func(t *testing.T, text string) error {
			return dict.New(floatCat()).Apply(&dict.Decls{Hierarchies: []dict.HierarchyDecl{{
				Object:          "T",
				ClassifyingAttr: "X",
				Subtypes:        []dict.SubtypeDecl{{Name: "S", Value: dict.ValueDecl{Kind: "float", Value: text}}},
			}}})
		}},
		{"KER instance", "attribute X", func(t *testing.T, text string) error {
			m, err := ker.Parse(`
object type T
  has key: Id domain: integer
  has: X domain: real

instance of T (Id = 1, X = "` + text + `")
`)
			if err != nil {
				t.Fatal(err)
			}
			_, err = integrity.BuildCatalog(m)
			return err
		}},
	}
	for _, e := range entries {
		for _, text := range []string{"NaN", "+Inf", "-Inf"} {
			err := e.load(t, text)
			if err == nil || !strings.Contains(err.Error(), e.col) {
				t.Errorf("%s of %s: err = %v, want an error naming %s", e.name, text, err, e.col)
			}
		}
		if err := e.load(t, "2.5"); err != nil {
			t.Errorf("%s of 2.5: %v", e.name, err)
		}
	}
}

// parseFloat parses one of the test's float texts.
func parseFloat(t *testing.T, text string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
