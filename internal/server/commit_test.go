package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCommitErrorsMapAlike: the three commit endpoints answer an error
// of the shared commit step the same way. A request whose context has
// already ended is abandoned with 504, whichever endpoint it reached.
func TestCommitErrorsMapAlike(t *testing.T) {
	sys, _ := inducedShipServer(t)
	if _, err := sys.Apply(context.Background(), `INSERT INTO CLASS VALUES ('9901', 'Contradictor', 'SSN', 16600)`); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		path, body string
		handle     http.HandlerFunc
	}{
		{"/induce", `{"nc": 3}`, srv.handleInduce},
		{"/maintain", `{"nc": 3}`, srv.handleMaintain},
		{"/mutate", `{"sql": "INSERT INTO SONAR VALUES ('ZZ-1', 'Active')"}`, srv.handleMutate},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)).WithContext(ctx)
		c.handle(rec, req)
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("%s with a cancelled context: %d %s, want 504", c.path, rec.Code, rec.Body)
		}
	}
	if v := sys.Version(); v != 3 {
		t.Errorf("cancelled requests moved the version to %d, want 3", v)
	}
}
