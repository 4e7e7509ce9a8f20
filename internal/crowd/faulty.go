package crowd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"
)

// ErrTransient marks a transient platform failure: the question did not
// execute (no state advanced, nothing was charged), and retrying it is
// safe and expected. FaultyPlatform injects it, RetryPlatform and the
// crowdhttp transport recover from it.
var ErrTransient = errors.New("crowd: transient platform failure")

// FaultyOptions configures deterministic, seeded fault injection. All
// injection decisions derive from the seed and a per-exchange counter, so
// a given option set produces the same fault schedule on every run. An
// exchange is one call of a charged question method: a Values batch of
// any size, or one Dismantle, Verify or Examples call.
type FaultyOptions struct {
	// Seed drives the injection schedule (independent of the platform
	// seed, so faults never perturb the simulated answers).
	Seed int64
	// FailRate is the probability an exchange fails transiently *before*
	// executing: the wrapped platform is never consulted, so no stream
	// cursor advances and nothing is charged — a retry observes exactly
	// the state the failed attempt saw.
	FailRate float64
	// FailAfter, when > 0, makes every exchange after the first N fail
	// transiently — the "platform went down mid-run" shape, for driving
	// retry budgets to exhaustion.
	FailAfter int
	// ShortRate is the probability an exchange's answers come back
	// short: one Values item, or an Examples stream, is truncated to a
	// strict prefix. The wrapped call executes fully (real platforms
	// return partially completed batches after collecting answers), so a
	// re-ask is cheap: cached answers are never regenerated or recharged.
	ShortRate float64
	// Latency delays every exchange; LatencyJitter adds a seeded random
	// extra on top.
	Latency       time.Duration
	LatencyJitter time.Duration
}

// FaultStats counts injected faults and fault recoveries across the
// layers that handle them (FaultyPlatform injects; RetryPlatform and
// crowdhttp.Client retry).
type FaultStats struct {
	// Questions is how many exchanges reached a fault-injecting layer
	// (HTTP attempts for crowdhttp.Client).
	Questions int64
	// InjectedErrors counts transient errors injected.
	InjectedErrors int64
	// InjectedShorts counts truncated Values/Examples answers returned.
	InjectedShorts int64
	// Retries counts re-asks performed by a retrying layer.
	Retries int64
}

// Merge accumulates another layer's counters.
func (s *FaultStats) Merge(o FaultStats) {
	s.Questions += o.Questions
	s.InjectedErrors += o.InjectedErrors
	s.InjectedShorts += o.InjectedShorts
	s.Retries += o.Retries
}

// faultRand derives an independent generator from the fault seed and an
// exchange index, mirroring the simulator's per-question derivation.
func faultRand(seed, idx int64) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "fault|%d|%d", seed, idx)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// FaultyPlatform wraps any Platform and injects transient errors, latency
// and short batches into the four charged question types (metadata
// lookups pass through untouched). The schedule runs once per exchange:
// a Values batch is one exchange whatever its size, so it draws one
// latency and one fault decision, like one request to a real platform.
// Injection is pre-execution for errors: a failed exchange leaves the
// wrapped platform exactly as it was, which is what makes a fault-injected run converge to the same answers as a
// fault-free run once a retry layer sits on top.
type FaultyPlatform struct {
	platform // the wrapped platform; metadata passes through unfaulted
	opts     FaultyOptions

	calls         atomic.Int64
	injectedErr   atomic.Int64
	injectedShort atomic.Int64
}

// NewFaulty wraps a platform with the fault schedule.
func NewFaulty(inner Platform, opts FaultyOptions) *FaultyPlatform {
	return &FaultyPlatform{platform: inner, opts: opts}
}

// Stats implements Platform, adding this layer's fault counters to the
// wrapped platform's.
func (f *FaultyPlatform) Stats() Stats {
	s := f.platform.Stats()
	s.Merge(FaultStats{
		Questions:      f.calls.Load(),
		InjectedErrors: f.injectedErr.Load(),
		InjectedShorts: f.injectedShort.Load(),
	})
	return s
}

// begin runs the per-exchange fault schedule: latency, then the
// pre-execution failure decision. The returned generator carries the
// exchange's remaining injection randomness (short batches).
func (f *FaultyPlatform) begin() (*rand.Rand, error) {
	idx := f.calls.Add(1)
	r := faultRand(f.opts.Seed, idx)
	if d := f.opts.Latency; d > 0 || f.opts.LatencyJitter > 0 {
		if f.opts.LatencyJitter > 0 {
			d += time.Duration(r.Int63n(int64(f.opts.LatencyJitter) + 1))
		}
		time.Sleep(d)
	}
	if f.opts.FailAfter > 0 && idx > int64(f.opts.FailAfter) {
		f.injectedErr.Add(1)
		return nil, fmt.Errorf("%w: injected (exchange %d past fail-after %d)", ErrTransient, idx, f.opts.FailAfter)
	}
	if f.opts.FailRate > 0 && r.Float64() < f.opts.FailRate {
		f.injectedErr.Add(1)
		return nil, fmt.Errorf("%w: injected (exchange %d)", ErrTransient, idx)
	}
	return r, nil
}

// Values implements Platform: the batch is one exchange, so it runs the
// fault schedule once — a pre-execution failure rejects the whole batch
// before the wrapped platform sees it (nothing charged, nothing
// advanced), and a short injection truncates one item's answers, the
// per-item partial completion a real platform returns. An empty batch
// asks nothing, so it is no exchange.
func (f *FaultyPlatform) Values(qs []ObjectValueQuestion) ([]ValueAnswers, error) {
	if len(qs) == 0 {
		return f.platform.Values(qs)
	}
	r, err := f.begin()
	if err != nil {
		return nil, err
	}
	out, err := f.platform.Values(qs)
	if err != nil {
		return nil, err
	}
	if f.opts.ShortRate > 0 && r.Float64() < f.opts.ShortRate {
		a := &out[r.Intn(len(qs))]
		if n := len(a.Values); n > 0 {
			f.injectedShort.Add(1)
			k := r.Intn(n)
			a.Values = a.Values[:k]
			if a.Workers != nil {
				a.Workers = a.Workers[:k]
			}
		}
	}
	return out, nil
}

// Dismantle implements Platform with injected faults.
func (f *FaultyPlatform) Dismantle(attr string) (string, error) {
	if _, err := f.begin(); err != nil {
		return "", err
	}
	return f.platform.Dismantle(attr)
}

// Verify implements Platform with injected faults.
func (f *FaultyPlatform) Verify(candidate, target string) (bool, error) {
	if _, err := f.begin(); err != nil {
		return false, err
	}
	return f.platform.Verify(candidate, target)
}

// Examples implements Platform with injected faults; short batches return
// a strict prefix of the real stream.
func (f *FaultyPlatform) Examples(targets []string, n int) ([]Example, error) {
	r, err := f.begin()
	if err != nil {
		return nil, err
	}
	ex, err := f.platform.Examples(targets, n)
	if err != nil {
		return nil, err
	}
	if n > 0 && f.opts.ShortRate > 0 && r.Float64() < f.opts.ShortRate {
		f.injectedShort.Add(1)
		return ex[:r.Intn(n)], nil
	}
	return ex, nil
}

// ForkPlatform implements Platform by rewrapping a fork of the inner
// platform with the same fault options. The fork's fault schedule
// restarts from exchange zero (its counter is private), which preserves
// the latency model exactly and keeps each forked session's injection
// schedule deterministic in isolation; nil when the inner platform
// cannot fork.
func (f *FaultyPlatform) ForkPlatform() Platform {
	inner := f.platform.ForkPlatform()
	if inner == nil {
		return nil
	}
	return NewFaulty(inner, f.opts)
}

// RetryOptions configures the in-process retry layer.
type RetryOptions struct {
	// MaxRetries is how many times a transiently failed question is
	// re-asked after the first attempt (default 6).
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles per attempt
	// up to BackoffMax (defaults 1ms / 100ms).
	Backoff    time.Duration
	BackoffMax time.Duration
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 6
	}
	if o.Backoff <= 0 {
		o.Backoff = time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 100 * time.Millisecond
	}
	return o
}

// RetryPlatform wraps a Platform and retries exchanges that fail with
// ErrTransient (or come back as short batches) with exponential backoff —
// the in-process counterpart of the crowdhttp client's retrying
// transport, used to run the experiment harness over a FaultyPlatform.
type RetryPlatform struct {
	platform // the wrapped platform; metadata passes through
	opts     RetryOptions
	retries  atomic.Int64
}

// NewRetry wraps a platform with the retry policy (zero options =
// defaults).
func NewRetry(inner Platform, opts RetryOptions) *RetryPlatform {
	return &RetryPlatform{platform: inner, opts: opts.withDefaults()}
}

// Stats implements Platform, adding this layer's retries to the wrapped
// platform's counters.
func (p *RetryPlatform) Stats() Stats {
	s := p.platform.Stats()
	s.Merge(FaultStats{Retries: p.retries.Load()})
	return s
}

// do runs one exchange, re-asking on ErrTransient until the retry budget
// is exhausted. Non-transient errors (budget, unknown attribute) are
// terminal immediately.
func (p *RetryPlatform) do(call func() error) error {
	backoff := p.opts.Backoff
	var err error
	for attempt := 0; attempt <= p.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > p.opts.BackoffMax {
				backoff = p.opts.BackoffMax
			}
		}
		if err = call(); err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
	}
	return fmt.Errorf("crowd: retry budget (%d) exhausted: %w", p.opts.MaxRetries, err)
}

// Values implements Platform; a transient failure or a short item
// re-asks the whole batch (answer memoization in the wrapped platform
// makes the replay free — only the faulted item actually re-executes).
func (p *RetryPlatform) Values(qs []ObjectValueQuestion) ([]ValueAnswers, error) {
	var out []ValueAnswers
	err := p.do(func() error {
		res, err := p.platform.Values(qs)
		if err != nil {
			return err
		}
		for i, q := range qs {
			if len(res[i].Values) < q.N {
				return fmt.Errorf("%w: short value batch %d/%d (item %d)", ErrTransient, len(res[i].Values), q.N, i)
			}
		}
		out = res
		return nil
	})
	return out, err
}

// Dismantle implements Platform with retries.
func (p *RetryPlatform) Dismantle(attr string) (string, error) {
	var out string
	err := p.do(func() error {
		ans, err := p.platform.Dismantle(attr)
		out = ans
		return err
	})
	return out, err
}

// Verify implements Platform with retries.
func (p *RetryPlatform) Verify(candidate, target string) (bool, error) {
	var out bool
	err := p.do(func() error {
		yes, err := p.platform.Verify(candidate, target)
		out = yes
		return err
	})
	return out, err
}

// Examples implements Platform; short batches are re-asked.
func (p *RetryPlatform) Examples(targets []string, n int) ([]Example, error) {
	var out []Example
	err := p.do(func() error {
		ex, err := p.platform.Examples(targets, n)
		if err != nil {
			return err
		}
		if len(ex) < n {
			return fmt.Errorf("%w: short example batch %d/%d", ErrTransient, len(ex), n)
		}
		out = ex
		return nil
	})
	return out, err
}

// ForkPlatform implements Platform by rewrapping a fork of the inner
// platform with the same retry policy (the fork gets its own retry
// counter); nil when the inner platform cannot fork.
func (p *RetryPlatform) ForkPlatform() Platform {
	inner := p.platform.ForkPlatform()
	if inner == nil {
		return nil
	}
	return NewRetry(inner, p.opts)
}
