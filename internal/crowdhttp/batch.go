package crowdhttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/crowd"
)

// maxBatchItems bounds one /v1/batch request, so a misbehaving client
// cannot make the server buffer an unbounded response.
const maxBatchItems = 1024

// Batch wire types. A batch is a list of heterogeneous question items;
// the response carries one result-or-error per item, in item order, so a
// partially failed batch still delivers every answer that was computed.
type (
	// batchItem is one question of a batch. Kind selects the question
	// type ("value", "examples", "meta", "canonical") and which of the
	// remaining fields apply. Dismantle/verify are deliberately not
	// batchable: their stream semantics drive the sequential discovery
	// loop and gain nothing from coalescing.
	batchItem struct {
		Kind      string   `json:"kind,omitempty"`
		ObjectID  int      `json:"object_id,omitempty"`
		Attribute string   `json:"attribute,omitempty"`
		Targets   []string `json:"targets,omitempty"`
		N         int      `json:"n,omitempty"`
		Name      string   `json:"name,omitempty"`
	}
	// questionRequest is the body of a single-question endpoint: one
	// batch item whose kind the path names.
	questionRequest struct {
		idemKey
		batchItem
	}
	batchRequest struct {
		idemKey
		Items []batchItem `json:"items"`
	}
	// batchItemResult is exactly one of: an error (with its retryability
	// classification, mirroring statusFor), or the payload of the item's
	// kind. A single-question endpoint answers with the payload alone.
	batchItemResult struct {
		Error     string        `json:"error,omitempty"`
		Transient bool          `json:"transient,omitempty"`
		Answers   []float64     `json:"answers,omitempty"`
		Examples  []exampleWire `json:"examples,omitempty"`
		Meta      *metaResponse `json:"meta,omitempty"`
		Canonical string        `json:"canonical,omitempty"`
	}
	batchResponse struct {
		Items []batchItemResult `json:"items"`
	}
)

// questionPaths maps each batchable question kind to its single-question
// endpoint.
var questionPaths = map[string]string{
	"value":     PathValue,
	"examples":  PathExamples,
	"meta":      PathMeta,
	"canonical": PathCanonical,
}

// batchSubKey derives the per-item idempotency key of batch item i. Items
// record individually under these sub-keys as they succeed, so a batch
// retried under the same key (after a timeout or an injected drop that
// the whole-batch replay missed) serves already-executed items from the
// replay cache instead of re-executing them — the same
// never-advance-a-stream-twice guarantee the single-question endpoints
// have, kept at item granularity.
func batchSubKey(key string, i int) string {
	return fmt.Sprintf("%s#%d", key, i)
}

// handleBatch executes a heterogeneous question batch. Items run
// concurrently on the shared computation pool; each item's failure is
// reported in its slot rather than failing the batch, so one bad item
// cannot discard its siblings' (already charged) answers. The response
// is always 200 unless the request itself is malformed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("crowdhttp: empty batch"))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("crowdhttp: batch of %d items exceeds limit %d", len(req.Items), maxBatchItems))
		return
	}
	for _, it := range req.Items {
		if err := checkN(it.N); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	s.batches.Add(1)
	s.batchItemCount.Add(int64(len(req.Items)))

	results := make([]batchItemResult, len(req.Items))
	var todo []int
	if req.IdempotencyKey == "" {
		todo = make([]int, len(req.Items))
		for i := range todo {
			todo[i] = i
		}
	} else {
		s.idemMu.Lock()
		for i := range req.Items {
			rec, ok := s.idemItems[batchSubKey(req.IdempotencyKey, i)]
			if ok && json.Unmarshal(rec.body, &results[i]) == nil {
				continue
			}
			results[i] = batchItemResult{}
			todo = append(todo, i)
		}
		s.idemMu.Unlock()
		s.batchItemReplays.Add(int64(len(req.Items) - len(todo)))
	}

	core.ForEach(len(todo), 0, func(k int) {
		res, err := s.execute(req.Items[todo[k]])
		if err != nil {
			res = batchItemResult{Error: err.Error(), Transient: errors.Is(err, crowd.ErrTransient)}
		}
		results[todo[k]] = res
	})

	if req.IdempotencyKey != "" {
		s.idemMu.Lock()
		for _, i := range todo {
			if results[i].Error != "" {
				continue
			}
			if body, err := json.Marshal(results[i]); err == nil {
				s.idemItems[batchSubKey(req.IdempotencyKey, i)] = idemRecord{status: http.StatusOK, body: body}
			}
		}
		s.idemMu.Unlock()
	}
	writeJSON(w, http.StatusOK, batchResponse{Items: results})
}

// execute answers one question against the platform, for a /v1/batch
// item and a single-question endpoint alike; statusFor classifies its
// errors.
func (s *Server) execute(it batchItem) (batchItemResult, error) {
	if err := checkN(it.N); err != nil {
		return batchItemResult{}, err
	}
	switch it.Kind {
	case "value":
		obj, ok := s.lookupObject(it.ObjectID)
		if !ok {
			return batchItemResult{}, fmt.Errorf("%w %d", errUnknownObject, it.ObjectID)
		}
		answers, err := crowd.Value(s.platform, obj, it.Attribute, it.N)
		return batchItemResult{Answers: answers}, err
	case "examples":
		examples, err := s.platform.Examples(it.Targets, it.N)
		if err != nil {
			return batchItemResult{}, err
		}
		out := make([]exampleWire, len(examples))
		s.mu.Lock()
		for i, ex := range examples {
			s.objects[ex.Object.ID] = ex.Object
			out[i] = exampleWire{ObjectID: ex.Object.ID, Values: ex.Values}
		}
		s.mu.Unlock()
		return batchItemResult{Examples: out}, nil
	case "meta":
		return batchItemResult{Meta: &metaResponse{
			Sigma:  s.platform.Sigma(it.Attribute),
			Binary: s.platform.IsBinary(it.Attribute),
		}}, nil
	case "canonical":
		return batchItemResult{Canonical: s.platform.Canonical(it.Name)}, nil
	default:
		return batchItemResult{}, fmt.Errorf("crowdhttp: unknown batch item kind %q", it.Kind)
	}
}

// ServerStats is the observability snapshot served at /v1/stats.
type ServerStats struct {
	// Requests counts HTTP requests per endpoint path (including replays
	// and fault-rejected ones).
	Requests map[string]int64 `json:"requests"`
	// ReplayHits counts whole requests answered from the idempotency
	// replay cache without touching the platform.
	ReplayHits int64 `json:"replay_hits"`
	// Batches/BatchItems count /v1/batch requests and the items they
	// carried; BatchItemReplays counts items served from per-item
	// sub-key records inside retried batches.
	Batches          int64 `json:"batches"`
	BatchItems       int64 `json:"batch_items"`
	BatchItemReplays int64 `json:"batch_item_replays"`
	// InjectedFaults counts request-level fault injections (faulty
	// servers only).
	InjectedFaults int64 `json:"injected_faults"`
	// RegisteredObjects and IdemRecords size the server's two registries.
	RegisteredObjects int `json:"registered_objects"`
	IdemRecords       int `json:"idem_records"`
}

// Stats returns the current observability counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Requests:         make(map[string]int64, len(s.reqCounts)),
		ReplayHits:       s.replayHits.Load(),
		Batches:          s.batches.Load(),
		BatchItems:       s.batchItemCount.Load(),
		BatchItemReplays: s.batchItemReplays.Load(),
		InjectedFaults:   s.InjectedFaults(),
	}
	for path, n := range s.reqCounts {
		st.Requests[path] = n.Load()
	}
	s.mu.RLock()
	st.RegisteredObjects = len(s.objects)
	s.mu.RUnlock()
	s.idemMu.Lock()
	st.IdemRecords = len(s.idem) + len(s.idemItems)
	s.idemMu.Unlock()
	return st
}

// handleStats serves the counters. It is exempt from fault injection and
// replay — an operator diagnosing a flaky deployment needs it to answer.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reqCounts[PathStats].Add(1)
	writeJSON(w, http.StatusOK, s.Stats())
}
