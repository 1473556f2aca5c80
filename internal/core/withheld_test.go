package core_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/maintain"
)

// withheldOpts are the induction options of the withheld-scheme tests:
// on the ship DB they induce 18 rules, of which the contradictor stales
// 6 in 3 schemes.
var withheldOpts = induct.Options{Nc: 3}

// staleShip returns a durable, induced ship system and its directory,
// after the contradictor has staled 6 of its 18 rules.
func staleShip(t *testing.T) (*core.System, string) {
	t.Helper()
	s, dir := durableShip(t, true, core.DurableOptions{})
	if got := s.Rules().Len(); got != 18 {
		t.Fatalf("induced %d rules, want 18", got)
	}
	res, err := s.Apply(context.Background(), contradictor)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale != 6 {
		t.Fatalf("contradictor staled %d rules, want 6", res.Stale)
	}
	return s, dir
}

// restarted checkpoints and closes s, and reopens its directory.
func restarted(t *testing.T, s *core.System, dir string) *core.System {
	t.Helper()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if got := s2.Rules().Len(); got != 12 {
		t.Errorf("reopened system serves %d rules, want the 12 valid ones", got)
	}
	return s2
}

// TestRestartKeepsWithheldSchemes checks that the schemes a write left
// awaiting re-induction survive a checkpoint and a restart, and a
// bootstrap: Maintain after OpenDurable re-induces the same schemes, and
// serves the same rules, as Maintain on the system that never restarted.
func TestRestartKeepsWithheldSchemes(t *testing.T) {
	ctx := context.Background()
	ref, _ := staleShip(t)
	want, err := ref.Maintain(ctx, withheldOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Schemes) != 3 || ref.Rules().Len() != 17 {
		t.Fatalf("reference maintain re-induced %v and serves %d rules; want 3 schemes and 17 rules",
			want.Schemes, ref.Rules().Len())
	}

	s, dir := staleShip(t)

	// A follower bootstrapped from the staled leader tracks the same
	// schemes, and its catalog does not show the relation carrying them.
	a, err := s.BootstrapArchive()
	if err != nil {
		t.Fatal(err)
	}
	f := blankFollower(t, core.DurableOptions{})
	if err := f.InstallBootstrap(a); err != nil {
		t.Fatal(err)
	}
	full, maint, _ := f.RuleStatus()
	if got := maint.SchemeKeys(full); !slices.Equal(got, want.Schemes) {
		t.Errorf("bootstrapped follower awaits %v, want %v", got, want.Schemes)
	}
	if f.Catalog().Has(maintain.WithheldRelName) {
		t.Errorf("follower catalog holds %s", maintain.WithheldRelName)
	}

	s2 := restarted(t, s, dir)
	got, err := s2.Maintain(ctx, withheldOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Schemes, want.Schemes) {
		t.Fatalf("after restart maintain re-induced %v, want %v", got.Schemes, want.Schemes)
	}
	if g, w := s2.Rules().String(), ref.Rules().String(); g != w {
		t.Errorf("after restart the system serves\n%s\nwant\n%s", g, w)
	}
}

// TestAutoMaintainAfterRestart checks that the maintenance worker,
// started on a reopened system, re-induces the schemes the restart
// restored without waiting for another stale write.
func TestAutoMaintainAfterRestart(t *testing.T) {
	s0, dir := staleShip(t)
	s := restarted(t, s0, dir)
	s.StartAutoMaintain(withheldOpts)
	defer s.StopAutoMaintain()
	deadline := time.Now().Add(10 * time.Second)
	for {
		full, maint, _ := s.RuleStatus()
		if len(maint.SchemeKeys(full)) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-maintain never re-induced the restored schemes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Rules().Len(); got != 17 {
		t.Errorf("after auto-maintain the system serves %d rules, want 17", got)
	}
}
