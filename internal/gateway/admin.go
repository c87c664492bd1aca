package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"busaware/internal/server"
)

// Elastic membership. The ring is no longer fixed at startup:
// AddBackend and RemoveBackend rebuild the routing snapshot at
// runtime, and POST /admin/backends exposes them over HTTP so an
// operator (or an autoscaler) can resize the cluster under load.
//
// Consistent hashing makes resizes cheap on the cache plane: adding a
// backend remaps only the keys it takes ownership of, every other
// shard keeps its locality. And with the backends' persistent store
// tiers in play a joining backend is not even cold for the keys it
// inherits — it replays them from its tier-2 directory or the shared
// tier-3 set instead of recomputing, so a resize is a warm replay
// rather than a recompute storm.

// validateBackendAddr canonicalizes one backend base URL (scheme +
// host, no trailing slash).
func validateBackendAddr(addr string) (string, error) {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	u, err := url.Parse(addr)
	if err != nil {
		return "", fmt.Errorf("bad backend url %q: %v", addr, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("bad backend url %q: want http(s)://host[:port]", addr)
	}
	return addr, nil
}

// errMembership marks add/remove refusals that are conflicts (already
// present, not present) rather than malformed input.
type errMembership string

func (e errMembership) Error() string { return string(e) }

// AddBackend joins addr to the ring. The new backend starts healthy
// and owns only the keys consistent hashing assigns it; every other
// shard's routing is untouched.
func (g *Gateway) AddBackend(addr string) error {
	addr, err := validateBackendAddr(addr)
	if err != nil {
		return err
	}
	g.clusterMu.Lock()
	defer g.clusterMu.Unlock()
	cur := g.cluster.Load()
	for _, b := range cur.backends {
		if b.addr == addr {
			return errMembership(fmt.Sprintf("backend %s already in ring", addr))
		}
	}
	backends := append(append([]*backend(nil), cur.backends...), g.newBackend(addr))
	g.swapCluster(backends)
	g.metrics.ringAdds.Add(1)
	return nil
}

// RemoveBackend drops addr from the ring. Its keys remap to the next
// points clockwise; in-flight attempts against it finish normally
// (the backend struct outlives the snapshot). Removing the last
// backend is allowed — the gateway then answers 502 until one joins.
func (g *Gateway) RemoveBackend(addr string) error {
	addr, err := validateBackendAddr(addr)
	if err != nil {
		return err
	}
	g.clusterMu.Lock()
	defer g.clusterMu.Unlock()
	cur := g.cluster.Load()
	backends := make([]*backend, 0, len(cur.backends))
	for _, b := range cur.backends {
		if b.addr != addr {
			backends = append(backends, b)
		}
	}
	if len(backends) == len(cur.backends) {
		return errMembership(fmt.Sprintf("backend %s not in ring", addr))
	}
	g.swapCluster(backends)
	g.metrics.ringRemoves.Add(1)
	return nil
}

// swapCluster publishes a new membership snapshot built over backends.
// Caller holds clusterMu.
func (g *Gateway) swapCluster(backends []*backend) {
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.addr
	}
	g.cluster.Store(&membership{ring: newRing(addrs, g.cfg.Replicas), backends: backends})
}

// adminBackendsRequest is the POST /admin/backends body.
type adminBackendsRequest struct {
	Op      string `json:"op"` // "add" or "remove"
	Backend string `json:"backend"`
}

// handleAdminBackends is the membership endpoint: GET lists the ring,
// POST {"op":"add"|"remove","backend":"http://host:port"} resizes it.
// Both respond with the resulting membership.
func (g *Gateway) handleAdminBackends(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var req adminBackendsRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			g.reject(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		var err error
		switch req.Op {
		case "add":
			err = g.AddBackend(req.Backend)
		case "remove":
			err = g.RemoveBackend(req.Backend)
		default:
			g.reject(w, http.StatusBadRequest, fmt.Sprintf("unknown op %q (want add or remove)", req.Op))
			return
		}
		if err != nil {
			code := http.StatusBadRequest
			if _, ok := err.(errMembership); ok {
				code = http.StatusConflict
			}
			g.reject(w, code, err.Error())
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		g.reject(w, http.StatusMethodNotAllowed, "GET or POST only")
		return
	}

	type member struct {
		Addr    string `json:"addr"`
		Healthy bool   `json:"healthy"`
	}
	c := g.cluster.Load()
	out := struct {
		Backends []member `json:"backends"`
	}{Backends: make([]member, 0, len(c.backends))}
	for _, b := range c.backends {
		out.Backends = append(out.Backends, member{Addr: b.addr, Healthy: b.healthy.Load()})
	}
	server.WriteJSON(w, http.StatusOK, out)
	g.metrics.observe(http.StatusOK)
}
