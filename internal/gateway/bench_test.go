package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"busaware/internal/server"
)

// benchGateway is a gateway over two in-process servers, called
// directly (no client socket); only the gateway → backend hops cross
// the loopback.
func benchGateway(b *testing.B) *Gateway {
	b.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 1})
		ts := httptest.NewServer(s)
		b.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		urls = append(urls, ts.URL)
	}
	g, err := New(Config{Backends: urls, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	return g
}

func gwServe(b *testing.B, g *Gateway, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// BenchmarkGatewaySimulate/hit-t1 prices one /v1/simulate through the
// gateway onto a backend whose memory tier already holds the cell.
func BenchmarkGatewaySimulate(b *testing.B) {
	b.Run("hit-t1", func(b *testing.B) {
		g := benchGateway(b)
		cell := cellBody(1)
		gwServe(b, g, "/v1/simulate", cell)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := gwServe(b, g, "/v1/simulate", cell); rec.Header().Get("X-Cache") != "hit" {
				b.Fatalf("X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
			}
		}
	})
}

// BenchmarkGatewaySweep/64 prices one 64-cell /v1/sweep through the
// gateway, scattered over both backends, every cell a tier-1 hit.
func BenchmarkGatewaySweep(b *testing.B) {
	b.Run("64", func(b *testing.B) {
		g := benchGateway(b)
		cells := make([]string, 64)
		for i := range cells {
			cells[i] = cellBody(i + 1)
		}
		body := `{"cells":[` + strings.Join(cells, ",") + `]}`
		gwServe(b, g, "/v1/sweep", body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gwServe(b, g, "/v1/sweep", body)
		}
	})
}
