package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestUnencodableReportIs500: a cached report the writer cannot encode
// (a NaN coverage) is answered with a 500 and a JSON error, not a 200
// with a partial or empty body.
func TestUnencodableReportIs500(t *testing.T) {
	s := New(Options{})
	s.store(&Report{ID: "nan", Summary: Summary{Coverage: math.NaN()}})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/reports/nan", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("GET of an unencodable report = %d, want 500\n%s", rec.Code, rec.Body.Bytes())
	}
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body is not a JSON error: %v\n%s", err, rec.Body.Bytes())
	}
	if !strings.Contains(body.Error, "unsupported value: NaN") {
		t.Errorf("500 error = %q, want the encoding error", body.Error)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), `phase="report"`) {
		t.Error("a failed report write counted as a report phase")
	}
}
