package quel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"intensional/internal/relation"
	"intensional/internal/storage"
)

// TestExecNeverPanicsProperty feeds random statement soup to the full
// session (parse + plan + execute): errors are fine, panics are not.
func TestExecNeverPanicsProperty(t *testing.T) {
	words := []string{
		"range", "of", "is", "retrieve", "into", "unique", "where", "sort", "by",
		"delete", "append", "to", "replace", "and", "or", "not",
		"r", "s", "REL", "X", "Y", "(", ")", ",", ".", "=", "!=", "<", "<=",
		">", ">=", "1", "2.5", `"v"`, "S",
	}
	prop := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		rr := rand.New(rand.NewSource(seed))
		cat := storage.NewCatalog()
		rel := relation.New("REL", relation.MustSchema(
			relation.Column{Name: "X", Type: relation.TInt},
			relation.Column{Name: "Y", Type: relation.TString},
		))
		rel.MustInsert(relation.Int(1), relation.String("a"))
		cat.Put(rel)
		sess := NewSession(NewPlanner(cat, nil, nil))
		_, _ = sess.Exec("range of r is REL")
		for stmt := 0; stmt < 3; stmt++ {
			n := rr.Intn(20)
			src := ""
			for i := 0; i < n; i++ {
				src += words[rr.Intn(len(words))] + " "
			}
			_, _ = sess.Exec(src)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// FuzzExec drives the full pipeline — lex, parse, plan, execute —
// with arbitrary statement text against a one-row catalog. The seed
// corpus in testdata/fuzz/FuzzExec covers every statement form the
// grammar accepts (range/retrieve/append/replace/delete) plus known
// near-misses; plain `go test` replays it as regression cases, and
// `go test -fuzz=FuzzExec` mutates from it.
func FuzzExec(f *testing.F) {
	for _, seed := range []string{
		"range of s is REL",
		"retrieve (r.X, r.Y) where r.X = 1",
		`retrieve into T unique (r.Y, r.X) sort by r.Y`,
		`retrieve (r.X) where not (r.Y = "a") and r.X >= 1 or r.X != 2`,
		`append to REL (X = 2, Y = "b")`,
		`replace r (Y = "c") where r.X = 1`,
		"delete r where r.X < 2",
		"retrieve (r.X",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		cat := storage.NewCatalog()
		rel := relation.New("REL", relation.MustSchema(
			relation.Column{Name: "X", Type: relation.TInt},
			relation.Column{Name: "Y", Type: relation.TString},
		))
		rel.MustInsert(relation.Int(1), relation.String("a"))
		cat.Put(rel)
		sess := NewSession(NewPlanner(cat, nil, nil))
		if _, err := sess.Exec("range of r is REL"); err != nil {
			t.Fatalf("seed range statement: %v", err)
		}
		// Errors are expected for almost all inputs; panics are the bug.
		_, _ = sess.Exec(src)
	})
}
