package crowdhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/crowd"
	"repro/internal/serve"
)

// Query-API endpoints: POST PathServeQuery executes one statement
// through a serve.Tier living in the server process, GET PathServeStats
// snapshots the tier's counters. Unlike the question-level endpoints
// (PathValue etc.), which move individual crowd questions across the
// wire so the *client* runs the pipeline, the query API moves whole
// queries: the server owns planning, caching, routing and budgets, and
// the client is a thin Executor — the deployment shape of a shared
// multi-tenant service.
const (
	PathServeQuery = "/v1/serve/query"
	PathServeStats = "/v1/serve/stats"
)

// maxBudgetMills bounds a query's b_obj_mills and b_prc_mills: $100, ten
// times the tier's default B_prc ($10) and 2500 times its default B_obj
// (4¢). Preprocess grows with the budgets — B_obj = $100 with B_prc =
// $10000 runs for tens of seconds, 2^40/2^50 mills never finishes — while
// a query at this bound preprocesses on the simulator in about a second.
const maxBudgetMills = 100_000

// queryWire is serve.Request on the wire (budgets in mills, matching
// crowd.Cost's unit everywhere else in the API).
type queryWire struct {
	Statement  string `json:"statement"`
	Class      string `json:"class,omitempty"`
	ObjectIDs  []int  `json:"object_ids,omitempty"`
	MaxObjects int    `json:"max_objects,omitempty"`
	BObjMills  int64  `json:"b_obj_mills,omitempty"`
	BPrcMills  int64  `json:"b_prc_mills,omitempty"`
	Adaptive   bool   `json:"adaptive,omitempty"`
	// Lazy runs the session through the lazy short-circuit evaluator
	// (serve.Request.Lazy); it composes with Adaptive and Reuse.
	Lazy bool `json:"lazy,omitempty"`
	// Shards overrides the server tier's shard count for this session
	// (0 = server default). The scatter happens tier-side: the client
	// still sends one request and receives one merged row set.
	Shards int `json:"shards,omitempty"`
	// Reuse opts the session into the server tier's shared answer cache
	// (serve.Request.ReuseAnswers); a no-op when the tier runs without
	// one.
	Reuse bool `json:"reuse,omitempty"`
}

// QueryServer adapts a serve.Tier to the query API.
type QueryServer struct {
	tier    *serve.Tier
	queries atomic.Int64
}

// NewQueryServer wraps a tier.
func NewQueryServer(t *serve.Tier) *QueryServer { return &QueryServer{tier: t} }

// Register mounts the query API on an existing mux, so it can share an
// address with the question-level API.
func (s *QueryServer) Register(mux *http.ServeMux) {
	mux.HandleFunc(PathServeQuery, s.handleQuery)
	mux.HandleFunc(PathServeStats, s.handleStats)
}

// Handler returns a standalone handler serving only the query API.
func (s *QueryServer) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// Queries reports how many query sessions the server has accepted.
func (s *QueryServer) Queries() int64 { return s.queries.Load() }

func (s *QueryServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeQuery(w, r)
	if !ok {
		return
	}
	s.queries.Add(1)
	res, err := s.tier.Execute(r.Context(), req)
	if err != nil {
		writeError(w, queryStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// decodeQuery reads one query request, answering 4xx itself when the
// request is not a well-formed query.
func decodeQuery(w http.ResponseWriter, r *http.Request) (serve.Request, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("crowdhttp: %s requires POST", r.URL.Path))
		return serve.Request{}, false
	}
	var wire queryWire
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&wire); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("crowdhttp: bad request body: %w", err))
		return serve.Request{}, false
	}
	if wire.BObjMills > maxBudgetMills || wire.BPrcMills > maxBudgetMills {
		writeError(w, http.StatusBadRequest, fmt.Errorf("crowdhttp: budgets (%d, %d mills) exceed limit %d",
			wire.BObjMills, wire.BPrcMills, maxBudgetMills))
		return serve.Request{}, false
	}
	return serve.Request{
		Statement:    wire.Statement,
		Class:        wire.Class,
		ObjectIDs:    wire.ObjectIDs,
		MaxObjects:   wire.MaxObjects,
		BObj:         crowd.Cost(wire.BObjMills),
		BPrc:         crowd.Cost(wire.BPrcMills),
		Adaptive:     wire.Adaptive,
		Lazy:         wire.Lazy,
		Shards:       wire.Shards,
		ReuseAnswers: wire.Reuse,
	}, true
}

// wireOf is the wire form of a request, the inverse of decodeQuery.
func wireOf(req serve.Request) queryWire {
	return queryWire{
		Statement:  req.Statement,
		Class:      req.Class,
		ObjectIDs:  req.ObjectIDs,
		MaxObjects: req.MaxObjects,
		BObjMills:  int64(req.BObj),
		BPrcMills:  int64(req.BPrc),
		Adaptive:   req.Adaptive,
		Lazy:       req.Lazy,
		Shards:     req.Shards,
		Reuse:      req.ReuseAnswers,
	}
}

// queryStatusFor maps a tier error onto HTTP: admission sheds are 429
// (the one retryable-after-backoff case), everything else — parse
// errors, unknown objects, budget exhaustion — is a terminal 400.
func queryStatusFor(err error) int {
	if errors.Is(err, serve.ErrRejected) {
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

func (s *QueryServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tier.Stats())
}

// QueryClient runs queries against a remote QueryServer. It implements
// serve.Executor, so serve.RunLoad and serve.MeasureCacheGain drive a
// remote tier exactly as they drive an in-process one.
type QueryClient struct {
	base string
	http *http.Client
}

// NewQueryClient targets a server at base (e.g. "http://127.0.0.1:8080").
// A nil httpClient uses http.DefaultClient.
func NewQueryClient(base string, httpClient *http.Client) *QueryClient {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &QueryClient{base: base, http: httpClient}
}

// Execute implements serve.Executor over the wire.
func (c *QueryClient) Execute(ctx context.Context, req serve.Request) (*serve.Result, error) {
	body, err := json.Marshal(wireOf(req))
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+PathServeQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeQueryError(resp)
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("crowdhttp: decoding query response: %w", err)
	}
	return &res, nil
}

// Stats fetches the remote tier's counters.
func (c *QueryClient) Stats(ctx context.Context) (*serve.Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathServeStats, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeQueryError(resp)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("crowdhttp: decoding stats: %w", err)
	}
	return &st, nil
}

// decodeQueryError reconstructs the tier error, restoring the
// serve.ErrRejected identity so callers (and RunLoad's shed accounting)
// can errors.Is through the wire.
func decodeQueryError(resp *http.Response) error {
	var e errorResponse
	msg := resp.Status
	if body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return fmt.Errorf("crowdhttp: %s: %w", msg, serve.ErrRejected)
	}
	return fmt.Errorf("crowdhttp: query failed (%d): %s", resp.StatusCode, msg)
}
