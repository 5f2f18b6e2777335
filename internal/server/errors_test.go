package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/registry"
)

// TestClassifyPrecedence pins the wire code, status and headers of each
// tag, and the order in which classify resolves errors carrying several:
// the first code of precedence present anywhere in the tree wins,
// whichever tag wraps which.
func TestClassifyPrecedence(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name       string
		err        error
		code       string
		status     int
		authHeader bool
		retryAfter string
	}{
		{"bad request", badRequest(base), api.CodeBadRequest, 400, false, ""},
		{"not found", notFound(base), api.CodeNotFound, 404, false, ""},
		{"overloaded", overloaded(base), api.CodeOverloaded, 503, false, ""},
		{"too many recipients", tooManyRecipients(base), api.CodeTooManyRecipients, 400, false, ""},
		{"unauthorized", unauthorized(base), api.CodeUnauthorized, 401, true, ""},
		{"forbidden", forbidden(base), api.CodeForbidden, 403, false, ""},
		{"rate limited", rateLimited(3*time.Second, base), api.CodeRateLimited, 429, false, "3"},
		{"quota exceeded", quotaExceeded(base), api.CodeQuotaExceeded, 429, false, ""},
		{"untagged", base, api.CodeInternal, 500, false, ""},
		{"body over cap in bad request", badRequest(fmt.Errorf("decode: %w", &http.MaxBytesError{Limit: 1})),
			api.CodePayloadTooLarge, 413, false, ""},
		{"conflict in bad request", badRequest(fmt.Errorf("put: %w", registry.ErrConflict)), api.CodeConflict, 409, false, ""},
		{"inner tag outranks outer", badRequest(fmt.Errorf("segment: %w", quotaExceeded(base))),
			api.CodeQuotaExceeded, 429, false, ""},
		{"rate limit under not found", notFound(rateLimited(2*time.Second, base)), api.CodeRateLimited, 429, false, "2"},
		{"joined", errors.Join(notFound(base), forbidden(base)), api.CodeForbidden, 403, false, ""},
		{"overloaded outranks body cap", overloaded(&http.MaxBytesError{Limit: 1}), api.CodeOverloaded, 503, false, ""},
		{"not found outranks conflict", notFound(registry.ErrConflict), api.CodeNotFound, 404, false, ""},
	}
	if !errors.Is(badRequest(base), base) || badRequest(base).Error() != base.Error() {
		t.Fatal("a tag must wrap its error transparently")
	}
	s := &Server{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			status := s.writeError(rec, c.err)
			code, _ := s.classify(c.err)
			if code != c.code || status != c.status || rec.Code != c.status {
				t.Fatalf("classify = %s/%d (recorded %d), want %s/%d", code, status, rec.Code, c.code, c.status)
			}
			if got := rec.Header().Get("WWW-Authenticate") != ""; got != c.authHeader {
				t.Fatalf("WWW-Authenticate present = %v, want %v", got, c.authHeader)
			}
			if got := rec.Header().Get("Retry-After"); got != c.retryAfter {
				t.Fatalf("Retry-After = %q, want %q", got, c.retryAfter)
			}
		})
	}
}
