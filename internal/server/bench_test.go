package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchCells returns n distinct small cells as /v1/simulate bodies.
func benchCells(n int) []string {
	cells := make([]string, n)
	for i := range cells {
		cells[i] = fmt.Sprintf(`{"apps":%q,"policy":"linux","seed":%d}`, smallSpec, i+1)
	}
	return cells
}

// serve calls the server's handler directly, without a socket.
func serve(b *testing.B, s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// BenchmarkServerSimulate/hit-t1 prices one /v1/simulate answered from
// the warm memory tier: decode, canonical key, tier-1 lookup, digest
// and write.
func BenchmarkServerSimulate(b *testing.B) {
	b.Run("hit-t1", func(b *testing.B) {
		s := New(Config{Workers: 1})
		defer s.Close()
		cell := benchCells(1)[0]
		serve(b, s, "/v1/simulate", cell)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := serve(b, s, "/v1/simulate", cell); rec.Header().Get("X-Cache") != "hit" {
				b.Fatalf("X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
			}
		}
	})
}

// BenchmarkServerSweep/64 prices one 64-cell /v1/sweep whose cells all
// sit in the warm memory tier.
func BenchmarkServerSweep(b *testing.B) {
	b.Run("64", func(b *testing.B) {
		s := New(Config{Workers: 1})
		defer s.Close()
		body := `{"cells":[` + strings.Join(benchCells(64), ",") + `]}`
		serve(b, s, "/v1/sweep", body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, s, "/v1/sweep", body)
		}
	})
}
