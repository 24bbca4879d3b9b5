package server

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// Auth is the serving tier's tenancy map: API key → tenant ID. A request
// presents its key as "Authorization: Bearer <key>" (or "X-API-Key: <key>");
// the tenant it resolves to owns every corpus it uploads and is the unit
// quotas meter. A nil or empty Auth disables authentication: the daemon runs
// open, and all traffic shares the anonymous tenant "".
type Auth struct {
	keys map[string]string // key → tenant
}

// Enabled reports whether authentication is configured.
func (a *Auth) Enabled() bool { return a != nil && len(a.keys) > 0 }

// Tenant resolves an API key to its tenant ID.
func (a *Auth) Tenant(key string) (string, bool) {
	if a == nil {
		return "", false
	}
	t, ok := a.keys[key]
	return t, ok
}

// Tenants returns the number of distinct tenants configured.
func (a *Auth) Tenants() int {
	if a == nil {
		return 0
	}
	seen := map[string]bool{}
	for _, t := range a.keys {
		seen[t] = true
	}
	return len(seen)
}

// ParseAuthKeys parses an inline tenant=key list (the -auth-keys flag):
// comma-separated "tenant=apikey" pairs. A tenant may hold several keys;
// one key cannot serve two tenants.
func ParseAuthKeys(spec string) (*Auth, error) {
	a := &Auth{keys: map[string]string{}}
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		if err := a.add(pair); err != nil {
			return nil, err
		}
	}
	if len(a.keys) == 0 {
		return nil, fmt.Errorf("auth: no tenant=key pairs in %q", spec)
	}
	return a, nil
}

// LoadAuthKeysFile parses a key file (the -auth-file flag): one "tenant=key"
// pair per line, blank lines and #-comments ignored.
func LoadAuthKeysFile(path string) (*Auth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	defer f.Close()
	a := &Auth{keys: map[string]string{}}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := a.add(text); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	if len(a.keys) == 0 {
		return nil, fmt.Errorf("auth: no tenant=key pairs in %s", path)
	}
	return a, nil
}

// add registers one "tenant=key" pair.
func (a *Auth) add(pair string) error {
	tenant, key, ok := strings.Cut(pair, "=")
	tenant, key = strings.TrimSpace(tenant), strings.TrimSpace(key)
	if !ok || tenant == "" || key == "" {
		return fmt.Errorf("auth: malformed pair %q (want tenant=key)", pair)
	}
	if prev, dup := a.keys[key]; dup && prev != tenant {
		return fmt.Errorf("auth: key of tenant %q already assigned to tenant %q", tenant, prev)
	}
	a.keys[key] = tenant
	return nil
}

// requestKey extracts the API key a request presents.
func requestKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
		return "" // an Authorization header in another scheme is not ours
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// Quotas bounds what one tenant may hold and ask of the daemon. Zero fields
// are unlimited. With authentication disabled all traffic shares the
// anonymous tenant, so the quotas become global daemon bounds.
type Quotas struct {
	// MaxCorpora caps the live corpora a tenant owns.
	MaxCorpora int
	// MaxEntries caps the summed non-zero WTP entries across a tenant's
	// live corpora — the serving tier's memory currency.
	MaxEntries int
	// RequestsPerSecond caps a tenant's sustained /v1 request rate; excess
	// requests get 429. Enforced by a token bucket of capacity Burst.
	RequestsPerSecond float64
	// Burst is the token-bucket depth (0 = max(1, ceil(RequestsPerSecond))).
	Burst int
}

// withDefaults resolves the derived Burst.
func (q Quotas) withDefaults() Quotas {
	if q.Burst == 0 && q.RequestsPerSecond > 0 {
		q.Burst = int(math.Ceil(q.RequestsPerSecond))
		if q.Burst < 1 {
			q.Burst = 1
		}
	}
	return q
}

// rateGate meters per-tenant request rates with one token bucket per
// tenant, created on first sight.
type rateGate struct {
	rps   float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// newRateGate returns a gate admitting rps sustained requests per tenant
// with the given burst depth; nil when rate limiting is off.
func newRateGate(q Quotas) *rateGate {
	if q.RequestsPerSecond <= 0 {
		return nil
	}
	return &rateGate{
		rps:     q.RequestsPerSecond,
		burst:   float64(q.Burst),
		now:     time.Now,
		buckets: map[string]*bucket{},
	}
}

// allow consumes one token from tenant's bucket, reporting whether the
// request is within quota.
func (g *rateGate) allow(tenant string) bool {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.buckets[tenant]
	if !ok {
		b = &bucket{tokens: g.burst, last: now}
		g.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(g.burst, b.tokens+dt*g.rps)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// guard wraps the API mux with the tenancy layer: API-key authentication
// and the per-tenant request-rate quota. It writes the authenticated tenant
// into the request's record and marks the request admitted — only admitted
// requests are billed to the usage meters. /v1 routes, /debug/traces and
// /debug/fleet are guarded (traces and the fleet view carry corpus IDs and
// request shapes — tenant data; the fleet view's span rows are
// additionally tenant-scoped, see handleFleet); /healthz, /metrics and
// /debug/pprof stay open, they are the operator's probes, not tenant
// traffic — which is also why the labeled per-tenant/per-corpus usage
// families on /metrics are opt-in (Config.UsageMetrics).
func (s *Server) guard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		guarded := strings.HasPrefix(r.URL.Path, "/v1/") || r.URL.Path == "/v1" ||
			r.URL.Path == "/debug/traces" || r.URL.Path == "/debug/fleet"
		if !guarded {
			next.ServeHTTP(w, r)
			return
		}
		rec := recordOf(w)
		if s.cfg.Auth.Enabled() {
			key := requestKey(r)
			if key == "" {
				s.met.authFailures.Add(1)
				s.fail(w, http.StatusUnauthorized, "missing API key (use Authorization: Bearer <key>)")
				return
			}
			t, ok := s.cfg.Auth.Tenant(key)
			if !ok {
				s.met.authFailures.Add(1)
				s.fail(w, http.StatusUnauthorized, "unknown API key")
				return
			}
			rec.tenant = t
		}
		if s.rates != nil && !s.rates.allow(rec.tenant) {
			s.met.quotaRPS.Add(1)
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, "request rate quota exceeded (%g req/s)", s.cfg.Quotas.RequestsPerSecond)
			return
		}
		rec.admitted = true
		next.ServeHTTP(w, r)
	})
}

// authorize checks that the request's tenant may operate on a session. A
// session with an empty owner is public — uploaded while authentication was
// off (e.g. the -demo corpus) — and stays accessible to every tenant. The
// registry's install gate shares its semantics via ownerError.
func (s *Server) authorize(w http.ResponseWriter, sess *session) bool {
	if !s.cfg.Auth.Enabled() || sess.tenant == "" || sess.tenant == recordOf(w).tenant {
		return true
	}
	s.fail(w, http.StatusForbidden, "%v", &ownerError{id: sess.id})
	return false
}
