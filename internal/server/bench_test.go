package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"busaware/internal/digest"
	"busaware/internal/store"
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

// BenchmarkServerSimulate prices one /v1/simulate per answering tier.
// hit-t1 is answered from the warm memory tier: decode, canonical key,
// tier-1 lookup, digest and write. hit-t2 and hit-t3 add a verified
// read of the local or the shared directory: the memory tier holds one
// cell and the loop alternates two, so every lookup misses it. miss
// computes a fresh cell every iteration: it adds building the cell,
// the simulation, rendering and the write-through.
func BenchmarkServerSimulate(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		s := New(Config{Workers: 1})
		defer s.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cell := fmt.Sprintf(`{"apps":%q,"policy":"linux","seed":%d}`, smallSpec, i+1)
			if rec := serve(b, s, "/v1/simulate", cell); rec.Header().Get("X-Cache") != "miss" {
				b.Fatalf("X-Cache = %q, want miss", rec.Header().Get("X-Cache"))
			}
		}
	})
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
	for _, tc := range []struct {
		name string
		cfg  func(dir string) store.Config
	}{
		{"hit-t2", func(dir string) store.Config { return store.Config{Dir: dir} }},
		{"hit-t3", func(dir string) store.Config { return store.Config{SharedDir: dir} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st, err := store.Open(tc.cfg(b.TempDir()))
			if err != nil {
				b.Fatal(err)
			}
			s := New(Config{Workers: 1, CacheSize: 1, Store: st})
			defer s.Close()
			cells := benchCells(2)
			for _, cell := range cells {
				serve(b, s, "/v1/simulate", cell)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := serve(b, s, "/v1/simulate", cells[i%2]); rec.Header().Get("X-Cache") != tc.name {
					b.Fatalf("X-Cache = %q, want %s", rec.Header().Get("X-Cache"), tc.name)
				}
			}
		})
	}
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

// BenchmarkCanonicalKey prices building one cell's cache key, which
// both hops pay on every request: linux seeds a random source while
// building its scheduler, window does not.
func BenchmarkCanonicalKey(b *testing.B) {
	for _, policy := range []string{"linux", "window"} {
		b.Run(policy, func(b *testing.B) {
			req := Request{Apps: smallSpec, Policy: policy, Seed: 1}
			want, err := CanonicalKey(req)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if key, _ := CanonicalKey(req); key != want {
					b.Fatalf("key %q, want %q", key, want)
				}
			}
		})
	}
}

// BenchmarkDigest prices the integrity digest stamped on every body,
// over a rendered one-cell response.
func BenchmarkDigest(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close()
	rec := serve(b, s, "/v1/simulate", benchCells(1)[0])
	body, want := rec.Body.Bytes(), rec.Header().Get(digest.Header)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sum := digest.Sum(body); sum != want {
			b.Fatalf("digest %s, want %s", sum, want)
		}
	}
}
