package core_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/shipdb"
)

func shipSystem(t *testing.T) *core.System {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	return core.New(cat, d)
}

// TestEndToEnd runs the whole pipeline through the public API: induce,
// then ask the paper's three example queries.
func TestEndToEnd(t *testing.T) {
	s := shipSystem(t)
	set, err := s.Induce(induct.Options{Nc: 3})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 || s.Rules().Len() != set.Len() {
		t.Fatalf("rule base not installed: %d", set.Len())
	}

	resp, err := s.Query(`SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
		FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Extensional.Len() != 2 {
		t.Errorf("extensional = %d rows", resp.Extensional.Len())
	}
	if !strings.Contains(resp.Intensional.Text(), "SSBN") {
		t.Errorf("intensional = %q", resp.Intensional.Text())
	}

	resp, err = s.Query(`SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = "SSBN"`, answer.BackwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Extensional.Len() != 7 {
		t.Errorf("extensional = %d rows", resp.Extensional.Len())
	}
	if !strings.Contains(resp.Intensional.Text(), "0101 to 0103") {
		t.Errorf("intensional = %q", resp.Intensional.Text())
	}
}

// TestSaveOpenRoundtrip relocates the database with its knowledge and
// reruns inference at the new location without re-inducing.
func TestSaveOpenRoundtrip(t *testing.T) {
	s := shipSystem(t)
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	nRules := s.Rules().Len()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	s2, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Rules().Len() != nRules {
		t.Fatalf("recovered %d rules, want %d", s2.Rules().Len(), nRules)
	}
	if len(s2.Dictionary().Hierarchies()) != 3 {
		t.Errorf("hierarchies = %d", len(s2.Dictionary().Hierarchies()))
	}
	resp, err := s2.Query(`SELECT SUBMARINE.ID FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Intensional.Text(), "SSBN") {
		t.Errorf("relocated inference = %q", resp.Intensional.Text())
	}
}

func TestCatalogAccessor(t *testing.T) {
	s := shipSystem(t)
	if !s.Catalog().Has("SUBMARINE") {
		t.Error("Catalog accessor broken")
	}
}

func TestSaveFailsOnUnwritablePath(t *testing.T) {
	s := shipSystem(t)
	if err := s.Save("/proc/definitely/not/writable"); err == nil {
		t.Error("Save to unwritable path should error")
	}
}

func TestOpenCorruptDeclarations(t *testing.T) {
	s := shipSystem(t)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dictionary.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Open(dir); err == nil {
		t.Error("corrupt declarations should fail Open")
	}
}

func TestOpenCorruptRuleRelations(t *testing.T) {
	s := shipSystem(t)
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Truncate the rule relation CSV to a bare header missing columns.
	if err := os.WriteFile(filepath.Join(dir, "rules.csv"), []byte("RuleNo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Open(dir); err == nil {
		t.Error("corrupt rule relations should fail Open")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := core.Open(t.TempDir()); err == nil {
		t.Error("Open of empty dir should error")
	}
}

func TestQueryErrorPropagates(t *testing.T) {
	s := shipSystem(t)
	if _, err := s.Query("SELECT nope FROM nothing", answer.Combined); err == nil {
		t.Error("bad query should error")
	}
}

func TestSaveWithoutRules(t *testing.T) {
	s := shipSystem(t)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Rules().Len() != 0 {
		t.Errorf("rules = %d, want 0", s2.Rules().Len())
	}
}

// TestInduceCancelledContext checks that Induce and Maintain on an
// already-cancelled context return its error and install nothing.
func TestInduceCancelledContext(t *testing.T) {
	s := shipSystem(t)
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), contradictor); err != nil {
		t.Fatal(err)
	}
	v := s.Version()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.InduceContext(ctx, induct.Options{Nc: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("InduceContext on a cancelled context returned %v", err)
	}
	if _, err := s.Maintain(ctx, induct.Options{Nc: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("Maintain on a cancelled context returned %v", err)
	}
	if s.Version() != v {
		t.Errorf("a cancelled induction installed version %d over %d", s.Version(), v)
	}
}
