package crowdhttp

import (
	"fmt"
	"time"
)

// pendingItem is one question waiting in the coalescer. The outcome
// channel is buffered, so the flusher never blocks on a consumer.
type pendingItem struct {
	item batchItem
	done chan batchOutcome
}

// batchOutcome is what a flushed item resolves to: the item's wire
// result, or the transport error that failed its whole batch request.
type batchOutcome struct {
	res batchItemResult
	err error
}

// batchEnter announces a Values caller that may enqueue questions.
// Pending flushes are held back while any caller is still preparing, so
// concurrent callers (EvaluateBatch fans objects out in parallel) land in
// one request instead of one each.
func (c *Client) batchEnter() {
	c.batchMu.Lock()
	c.preparing++
	c.batchMu.Unlock()
}

// batchLeave retires a caller announced by batchEnter. The last one out
// flushes whatever is pending — this, not the window timer, is the
// common-case flush trigger, which is why a strictly sequential caller
// pays no batching latency at all.
func (c *Client) batchLeave() {
	c.batchMu.Lock()
	c.preparing--
	var toSend []*pendingItem
	if c.preparing <= 0 && len(c.pending) > 0 {
		toSend = c.takePendingLocked()
	}
	c.batchMu.Unlock()
	c.sendBatch(toSend)
}

// enqueueBatch adds a caller's questions to the pending batch. The batch
// is flushed inline when micro-batching is disabled or the batch is full;
// otherwise the window timer is armed as the staleness bound for the
// case where every remaining caller stalls before its batchLeave.
func (c *Client) enqueueBatch(items []*pendingItem) {
	c.batchMu.Lock()
	if len(c.pending) > 0 {
		c.coalescedCount.Add(1)
	}
	c.pending = append(c.pending, items...)
	var toSend []*pendingItem
	if c.opts.BatchWindow < 0 || len(c.pending) >= c.opts.MaxBatch {
		toSend = c.takePendingLocked()
	} else if c.pendingTimer == nil {
		c.pendingTimer = time.AfterFunc(c.opts.BatchWindow, c.flushPending)
	}
	c.batchMu.Unlock()
	c.sendBatch(toSend)
}

// takePendingLocked claims the pending batch and disarms the timer; the
// caller must hold batchMu and send what it gets.
func (c *Client) takePendingLocked() []*pendingItem {
	toSend := c.pending
	c.pending = nil
	if c.pendingTimer != nil {
		c.pendingTimer.Stop()
		c.pendingTimer = nil
	}
	return toSend
}

// flushPending is the window-timer callback.
func (c *Client) flushPending() {
	c.batchMu.Lock()
	c.pendingTimer = nil
	toSend := c.pending
	c.pending = nil
	c.batchMu.Unlock()
	c.sendBatch(toSend)
}

// sendBatch posts the items as /v1/batch requests (split at MaxBatch) and
// fans the per-item results back out. Each request goes through the
// retrying transport under one idempotency key, so a retried batch
// replays server-side instead of re-executing.
func (c *Client) sendBatch(items []*pendingItem) {
	for start := 0; start < len(items); start += c.opts.MaxBatch {
		end := start + c.opts.MaxBatch
		if end > len(items) {
			end = len(items)
		}
		chunk := items[start:end]
		req := &batchRequest{Items: make([]batchItem, len(chunk))}
		for i, it := range chunk {
			req.Items[i] = it.item
		}
		c.batchCount.Add(1)
		c.batchItemCount.Add(int64(len(chunk)))
		var resp batchResponse
		err := c.post(PathBatch, req, &resp)
		if err == nil && len(resp.Items) != len(chunk) {
			err = fmt.Errorf("crowdhttp: %s returned %d results, want %d", PathBatch, len(resp.Items), len(chunk))
		}
		for i, it := range chunk {
			if err != nil {
				it.done <- batchOutcome{err: err}
			} else {
				it.done <- batchOutcome{res: resp.Items[i]}
			}
		}
	}
}
