package core_test

import (
	"context"
	"fmt"
	"testing"

	"intensional/internal/answer"
	"intensional/internal/core"
)

const bodySQL = `SELECT SUBMARINE.ID, SUBMARINE.NAME FROM SUBMARINE WHERE SUBMARINE.CLASS = '0204'`

// countingEncoder returns an encode function that yields body and
// counts its calls.
func countingEncoder(body string, calls *int) func() ([]byte, error) {
	return func() ([]byte, error) {
		*calls++
		return []byte(body), nil
	}
}

// TestBodyStoredOnSecondUse: the first request for a key encodes and
// stores nothing, the second encodes and stores, later ones are served
// the stored bytes without encoding.
func TestBodyStoredOnSecondUse(t *testing.T) {
	s := inducedShipSystem(t)
	resp, err := s.Query(bodySQL, answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	enc := countingEncoder("combined-body", &calls)
	for i, want := range []struct {
		calls int
		bytes int64
	}{{1, 0}, {2, 13}, {2, 13}, {2, 13}} {
		got, err := resp.Body("combined", enc)
		if err != nil || string(got) != "combined-body" {
			t.Fatalf("request %d: %q, %v", i+1, got, err)
		}
		if calls != want.calls {
			t.Errorf("request %d: %d encodes, want %d", i+1, calls, want.calls)
		}
		if b := s.PlannerStats().CachedBodyBytes; b != want.bytes {
			t.Errorf("request %d: CachedBodyBytes = %d, want %d", i+1, b, want.bytes)
		}
	}
}

// TestBodyKeyedByResponseMode: one statement's responses for different
// answer modes keep separate bodies under the same key.
func TestBodyKeyedByResponseMode(t *testing.T) {
	s := inducedShipSystem(t)
	for i := 0; i < 2; i++ {
		for _, m := range []answer.Mode{answer.Combined, answer.ForwardOnly} {
			resp, err := s.Query(bodySQL, m)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("body-%d", m)
			got, err := resp.Body("k", func() ([]byte, error) { return []byte(want), nil })
			if err != nil || string(got) != want {
				t.Errorf("mode %d: body %q, %v, want %q", m, got, err, want)
			}
		}
	}
}

// TestBodyDiesWithSnapshot: a new snapshot starts with an empty memo.
func TestBodyDiesWithSnapshot(t *testing.T) {
	s := inducedShipSystem(t)
	for i := 0; i < 2; i++ {
		resp, err := s.Query(bodySQL, answer.Combined)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resp.Body("k", func() ([]byte, error) { return []byte("old"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if b := s.PlannerStats().CachedBodyBytes; b != 3 {
		t.Fatalf("CachedBodyBytes = %d, want 3", b)
	}
	if _, err := s.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN996', 'Fresh', '0204')`); err != nil {
		t.Fatal(err)
	}
	if b := s.PlannerStats().CachedBodyBytes; b != 0 {
		t.Errorf("CachedBodyBytes after a write = %d, want 0", b)
	}
	resp, err := s.Query(bodySQL, answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resp.Body("k", func() ([]byte, error) { return []byte("new"), nil })
	if err != nil || string(got) != "new" {
		t.Errorf("body after a write = %q, %v, want \"new\"", got, err)
	}
}

// TestBodyOutsideCacheEncodesEachTime: a Response not built by the
// statement cache has no memo.
func TestBodyOutsideCacheEncodesEachTime(t *testing.T) {
	var resp core.Response
	calls := 0
	enc := countingEncoder("x", &calls)
	for i := 0; i < 3; i++ {
		if _, err := resp.Body("k", enc); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Errorf("%d encodes for 3 requests, want 3", calls)
	}
}
