package crowd

import (
	"sort"
	"sync"

	"repro/internal/store"
)

// recorderShards is the fixed shard count of the recorder's write path.
// Answers are keyed by object id, so sharding by id lets concurrent
// evaluations of different objects record without contending on one lock.
const recorderShards = 32

// recorderShard buffers the recordings of one object-id shard.
type recorderShard struct {
	mu    sync.Mutex
	table *store.Table
}

// Recorder wraps a Platform and records every value answer and example
// truth it sees into a store.Table — the paper's methodology of keeping
// all crowd answers "in a database and reused in following experiments, so
// that results of multiple runs/algorithms may be compared in equivalent
// settings". The recorded table can be saved, inspected as CSV, or used to
// audit exactly what the crowd was asked. Dismantling and verification
// answers are not object-bound, so they pass through unrecorded.
//
// Recorder is safe for concurrent use; recordings are buffered in
// object-id shards and merged on demand by Table.
type Recorder struct {
	platform // the wrapped platform; every unrecorded method passes through
	shards   [recorderShards]recorderShard
}

// NewRecorder wraps a platform with recording.
func NewRecorder(inner Platform) *Recorder {
	r := &Recorder{platform: inner}
	for i := range r.shards {
		r.shards[i].table = store.NewTable()
	}
	return r
}

// shard returns the shard buffering recordings for an object id.
func (r *Recorder) shard(objID int) *recorderShard {
	return &r.shards[uint(objID)%recorderShards]
}

// Table merges the recorded data into a fresh table with rows ordered by
// object id. The snapshot is independent of the recorder: callers may
// mutate it freely, and recordings made after the call are not reflected
// (call Table again for an up-to-date view).
func (r *Recorder) Table() *store.Table {
	type rowRef struct {
		id  int
		row *store.Row
	}
	var rows []rowRef
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, id := range sh.table.ObjectIDs() {
			row, _ := sh.table.Row(id)
			rows = append(rows, rowRef{id: id, row: row})
		}
		sh.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	out := store.NewTable()
	for _, rr := range rows {
		for attr, v := range rr.row.TrueValues {
			out.SetTrue(rr.id, attr, v)
		}
		for attr, ans := range rr.row.Answers {
			out.SetAnswers(rr.id, attr, ans)
		}
	}
	return out
}

// Values implements Platform, recording every question's full answer
// multiset.
func (r *Recorder) Values(qs []ObjectValueQuestion) ([]ValueAnswers, error) {
	answers, err := r.platform.Values(qs)
	if err != nil {
		return nil, err
	}
	for i, q := range qs {
		attr := r.platform.Canonical(q.Attr)
		sh := r.shard(q.Object.ID)
		sh.mu.Lock()
		sh.table.SetAnswers(q.Object.ID, attr, answers[i].Values)
		sh.mu.Unlock()
	}
	return answers, nil
}

// Examples implements Platform, recording the true target values.
func (r *Recorder) Examples(targets []string, n int) ([]Example, error) {
	examples, err := r.platform.Examples(targets, n)
	if err != nil {
		return nil, err
	}
	for _, ex := range examples {
		sh := r.shard(ex.Object.ID)
		sh.mu.Lock()
		for attr, v := range ex.Values {
			sh.table.SetTrue(ex.Object.ID, attr, v)
		}
		sh.mu.Unlock()
	}
	return examples, nil
}

// ForkPlatform implements Platform: a recording cannot fork, so this
// returns nil.
func (r *Recorder) ForkPlatform() Platform { return nil }
