// Package crowdhttp exposes a crowd.Platform over HTTP and implements a
// crowd.Platform client on top of that API, so the DisQ pipeline can run
// against a crowd service living in another process (the deployment shape
// of a real CrowdFlower/MTurk integration).
//
// Division of responsibilities:
//
//   - The server executes questions against its wrapped platform and owns
//     the objects (a client can only ask value questions about objects the
//     server has handed out through example questions). It deduplicates
//     retried POSTs by their idempotency key, replaying the recorded
//     response instead of re-executing, so a retry can never advance a
//     dismantling/verification stream twice.
//   - The client owns budgeting: it knows the pricing, keeps a local
//     answer cache mirroring its own asks, charges its ledger *before*
//     each request, and therefore enforces B_prc/B_obj without trusting
//     the server. Charging is transactional — a reservation committed on
//     success and refunded on failure — so transport faults never leak
//     budget, and a per-key single-flight lock prevents concurrent
//     callers of one question from double-charging.
//   - The transport retries transient failures (connection errors,
//     timeouts, 5xx, 429, short batches) with exponential backoff +
//     jitter under a bounded retry budget; 4xx and local budget errors
//     are terminal.
//
// Fault injection: NewFaultyServer adds seeded request-level faults
// (pre-execution 503s, post-execution response drops recovered only via
// idempotent replay, latency, fail-after-N), and crowd.FaultyPlatform can
// wrap the served platform for question-level faults (transient errors,
// short batches). Together they let the whole pipeline be hammered
// end-to-end through a flaky deployment — see the package tests.
//
// The wire format is JSON over POST; see the endpoint constants.
package crowdhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// API endpoints (all POST except the GET /v1/pricing and /v1/stats).
const (
	PathValue     = "/v1/value"
	PathDismantle = "/v1/dismantle"
	PathVerify    = "/v1/verify"
	PathExamples  = "/v1/examples"
	PathCanonical = "/v1/canonical"
	PathMeta      = "/v1/meta"
	PathPricing   = "/v1/pricing"
	PathBatch     = "/v1/batch"
	PathStats     = "/v1/stats"
)

// Wire input bounds. The server neutralizes its platform's budget (clients
// budget themselves), so without them one request could make the
// platform generate answers or examples until the process runs out of
// memory.
const (
	// maxAnswers bounds the answer or example count N of one question.
	maxAnswers = 1 << 16
	// maxBodyBytes bounds one request body; a full /v1/batch of
	// maxBatchItems questions stays far below it.
	maxBodyBytes = 1 << 20
)

// checkN rejects an answer or example count above maxAnswers.
func checkN(n int) error {
	if n > maxAnswers {
		return fmt.Errorf("crowdhttp: n = %d exceeds limit %d", n, maxAnswers)
	}
	return nil
}

// servedPaths lists every endpoint, for the per-path request counters.
var servedPaths = []string{
	PathValue, PathDismantle, PathVerify, PathExamples,
	PathCanonical, PathMeta, PathPricing, PathBatch, PathStats,
}

// idemKey is the client-generated idempotency key every request embeds.
// The server executes a key at most once and replays the recorded
// response to retries, which is what makes a retried POST safe against
// double-answering (and, with the client's reservation charging, against
// double-pricing).
type idemKey struct {
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

func (k *idemKey) setIdempotencyKey(s string) { k.IdempotencyKey = s }

// wireRequest is any request type carrying an idempotency key.
type wireRequest interface{ setIdempotencyKey(string) }

// Wire types. The batchable question kinds share one request type,
// batchItem (batch.go); the rest have their own.
type (
	dismantleRequest struct {
		idemKey
		Attribute string `json:"attribute"`
	}
	dismantleResponse struct {
		Answer string `json:"answer"`
	}
	verifyRequest struct {
		idemKey
		Candidate string `json:"candidate"`
		Target    string `json:"target"`
	}
	verifyResponse struct {
		Yes bool `json:"yes"`
	}
	exampleWire struct {
		ObjectID int                `json:"object_id"`
		Values   map[string]float64 `json:"values"`
	}
	metaResponse struct {
		Sigma  float64 `json:"sigma"`
		Binary bool    `json:"binary"`
	}
	pricingResponse struct {
		BinaryValue  crowd.Cost `json:"binary_value"`
		NumericValue crowd.Cost `json:"numeric_value"`
		Dismantling  crowd.Cost `json:"dismantling"`
		Verification crowd.Cost `json:"verification"`
		Example      crowd.Cost `json:"example"`
	}
	errorResponse struct {
		Error string `json:"error"`
	}
)

// FaultOptions configures seeded request-level fault injection on the
// server (see crowd.FaultyOptions for question-level injection on the
// platform underneath).
type FaultOptions struct {
	// Seed drives the injection schedule.
	Seed int64
	// FailRate is the fraction of requests rejected with 503 *before*
	// executing; the platform never sees them, so a retry observes
	// unchanged state.
	FailRate float64
	// DropRate is the fraction of requests whose response is recorded
	// under the idempotency key and then replaced with a 503 — the
	// "executed, but the answer never reached the client" failure of real
	// deployments; only the idempotent replay can recover the answer
	// without re-executing.
	DropRate float64
	// FailAfter > 0 rejects every request after the first N with 503 (the
	// platform-went-down shape, for exercising retry exhaustion).
	FailAfter int
	// Latency delays every request.
	Latency time.Duration
}

// faultInjector makes the per-request fault decisions.
type faultInjector struct {
	opts     FaultOptions
	calls    atomic.Int64
	injected atomic.Int64
}

type faultDecision struct {
	fail bool // reject before executing
	drop bool // execute, record for replay, then lose the response
}

func (f *faultInjector) next() faultDecision {
	if f == nil {
		return faultDecision{}
	}
	idx := f.calls.Add(1)
	if f.opts.Latency > 0 {
		time.Sleep(f.opts.Latency)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "srvfault|%d|%d", f.opts.Seed, idx)
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	var d faultDecision
	switch {
	case f.opts.FailAfter > 0 && idx > int64(f.opts.FailAfter):
		d.fail = true
	case f.opts.FailRate > 0 && r.Float64() < f.opts.FailRate:
		d.fail = true
	case f.opts.DropRate > 0 && r.Float64() < f.opts.DropRate:
		d.drop = true
	}
	if d.fail || d.drop {
		f.injected.Add(1)
	}
	return d
}

// idemRecord is one recorded response body, ready for replay.
type idemRecord struct {
	status int
	body   []byte
}

// Server adapts a crowd.Platform to the HTTP API. It neutralizes the
// wrapped platform's budget enforcement (clients budget themselves),
// keeps a registry of the objects it has handed out so value questions
// can reference them by id, and records each idempotency key's response
// so retried POSTs replay instead of re-executing. The registry is
// read-mostly (every value question looks an object up; only example
// questions and RegisterObject write), so it sits behind an RWMutex and
// concurrent value questions never serialize on it.
type Server struct {
	platform crowd.Platform
	faults   *faultInjector

	mu      sync.RWMutex
	objects map[int]*domain.Object

	idemMu sync.Mutex
	idem   map[string]idemRecord
	// idemItems records /v1/batch items under their sub-keys, apart from
	// idem: a client key that happens to look like a sub-key must not
	// replay another batch's item.
	idemItems map[string]idemRecord

	// Observability counters, served at /v1/stats. reqCounts is keyed by
	// endpoint path and fully populated at construction, so handlers only
	// ever touch atomics.
	reqCounts        map[string]*atomic.Int64
	replayHits       atomic.Int64
	batches          atomic.Int64
	batchItemCount   atomic.Int64
	batchItemReplays atomic.Int64
}

// NewServer wraps a platform. The platform's ledger is replaced with an
// unlimited one; budget enforcement is the client's job.
func NewServer(p crowd.Platform) *Server {
	p.SetLedger(crowd.NewLedger(0))
	s := &Server{
		platform:  p,
		objects:   make(map[int]*domain.Object),
		idem:      make(map[string]idemRecord),
		idemItems: make(map[string]idemRecord),
		reqCounts: make(map[string]*atomic.Int64, len(servedPaths)),
	}
	for _, path := range servedPaths {
		s.reqCounts[path] = new(atomic.Int64)
	}
	return s
}

// NewFaultyServer is NewServer plus seeded request-level fault injection.
func NewFaultyServer(p crowd.Platform, f FaultOptions) *Server {
	s := NewServer(p)
	s.faults = &faultInjector{opts: f}
	return s
}

// InjectedFaults reports how many requests had a fault injected.
func (s *Server) InjectedFaults() int64 {
	if s.faults == nil {
		return 0
	}
	return s.faults.injected.Load()
}

// Handler returns the API's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for kind, path := range questionPaths {
		mux.HandleFunc(path, s.wrap(path, s.handleQuestion(kind)))
	}
	mux.HandleFunc(PathDismantle, s.wrap(PathDismantle, s.handleDismantle))
	mux.HandleFunc(PathVerify, s.wrap(PathVerify, s.handleVerify))
	mux.HandleFunc(PathBatch, s.wrap(PathBatch, s.handleBatch))
	mux.HandleFunc(PathPricing, s.wrapPricing(s.handlePricing))
	mux.HandleFunc(PathStats, s.handleStats)
	return mux
}

var errInjectedFault = errors.New("crowdhttp: injected transient fault")

// responseRecorder buffers a handler's response so it can be stored for
// idempotent replay (and dropped by fault injection) before any byte
// reaches the client.
type responseRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *responseRecorder {
	return &responseRecorder{header: make(http.Header), status: http.StatusOK}
}

func (r *responseRecorder) Header() http.Header         { return r.header }
func (r *responseRecorder) WriteHeader(status int)      { r.status = status }
func (r *responseRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func (r *responseRecorder) copyTo(w http.ResponseWriter) {
	for k, vs := range r.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(r.status)
	_, _ = w.Write(r.body.Bytes())
}

// wrap applies fault injection and idempotent replay around one POST
// handler: a known key replays the recorded response without touching the
// platform; a fresh key executes once, records a successful response,
// and only then (possibly) loses it to an injected drop.
func (s *Server) wrap(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqCounts[path].Add(1)
		d := s.faults.next()
		if d.fail {
			writeError(w, http.StatusServiceUnavailable, errInjectedFault)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("crowdhttp: reading request body: %w", err))
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var key idemKey
		_ = json.Unmarshal(body, &key)
		if key.IdempotencyKey != "" {
			s.idemMu.Lock()
			rec, ok := s.idem[key.IdempotencyKey]
			s.idemMu.Unlock()
			if ok {
				s.replayHits.Add(1)
				writeJSONBytes(w, rec.status, rec.body)
				return
			}
		}
		rec := newRecorder()
		h(rec, r)
		if key.IdempotencyKey != "" && rec.status == http.StatusOK {
			s.idemMu.Lock()
			s.idem[key.IdempotencyKey] = idemRecord{
				status: rec.status,
				body:   append([]byte(nil), rec.body.Bytes()...),
			}
			s.idemMu.Unlock()
		}
		if d.drop && rec.status == http.StatusOK {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%w: response dropped", errInjectedFault))
			return
		}
		rec.copyTo(w)
	}
}

// wrapPricing applies fault injection only (GET has no body, hence no
// idempotency key; pricing is naturally idempotent).
func (s *Server) wrapPricing(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqCounts[PathPricing].Add(1)
		if d := s.faults.next(); d.fail || d.drop {
			writeError(w, http.StatusServiceUnavailable, errInjectedFault)
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// errUnknownObject rejects a value question about an object the server
// never handed out or registered.
var errUnknownObject = errors.New("crowdhttp: unknown object")

// statusFor maps question errors onto the retryability contract: a
// transient platform failure is 503 (retryable), an unknown object 404,
// everything else a terminal 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, crowd.ErrTransient):
		return http.StatusServiceUnavailable
	case errors.Is(err, errUnknownObject):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("crowdhttp: %s requires POST", r.URL.Path))
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("crowdhttp: bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) lookupObject(id int) (*domain.Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[id]
	return o, ok
}

// handleQuestion serves the single-question endpoint of one batchable
// kind: the body is a batch item without its kind field, answered by the
// batch executor. Meta answers at the top level; the other kinds answer
// with the payload field of their batch result.
func (s *Server) handleQuestion(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req questionRequest
		if !decode(w, r, &req) {
			return
		}
		req.Kind = kind
		res, err := s.execute(req.batchItem)
		switch {
		case err != nil:
			writeError(w, statusFor(err), err)
		case res.Meta != nil:
			writeJSON(w, http.StatusOK, res.Meta)
		default:
			writeJSON(w, http.StatusOK, res)
		}
	}
}

func (s *Server) handleDismantle(w http.ResponseWriter, r *http.Request) {
	var req dismantleRequest
	if !decode(w, r, &req) {
		return
	}
	ans, err := s.platform.Dismantle(req.Attribute)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, dismantleResponse{Answer: ans})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if !decode(w, r, &req) {
		return
	}
	yes, err := s.platform.Verify(req.Candidate, req.Target)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, verifyResponse{Yes: yes})
}

func (s *Server) handlePricing(w http.ResponseWriter, r *http.Request) {
	p := s.platform.Pricing()
	writeJSON(w, http.StatusOK, pricingResponse{
		BinaryValue:  p.BinaryValue,
		NumericValue: p.NumericValue,
		Dismantling:  p.Dismantling,
		Verification: p.Verification,
		Example:      p.Example,
	})
}

// RegisterObject makes an object the server already owns addressable by
// id (for online-phase evaluation of database objects that did not come
// from example questions).
func (s *Server) RegisterObject(o *domain.Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[o.ID] = o
}
