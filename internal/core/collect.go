package core

import (
	"fmt"
	"sort"

	"repro/internal/crowd"
	"repro/internal/stats"
)

// collector owns the example streams and the raw crowd samples the
// statistics are computed from (the data of Tables 1a and 3 in the paper).
type collector struct {
	p       crowd.Platform
	opts    Options
	targets []string // canonical, targets[0]'s stream is the base stream
	n1      int      // effective N1 (may be reduced under tight budgets)

	truth     map[string][]float64              // per target: true values of its first n1 examples
	streams   map[string][]crowd.Example        // per target: examples fetched so far
	base      map[string]*rawSamples            // attr → base-stream samples
	perTarget map[string]map[string]*rawSamples // target → attr → samples on its stream

	attrs   []string
	attrSet map[string]struct{}

	// memo carries the incremental moment accumulators across the
	// dismantling loop's compute() calls; samples are append-only, so
	// every memoized entry stays valid for the collector's lifetime.
	memo *statMemo
}

// newCollector sizes the example streams for the available budget: the
// paper's N1 = 200 costs $10·|Q| in example questions alone, so for small
// preprocessing budgets we shrink N1 to keep at most ~40% of the budget in
// example questions (documented deviation; without it the algorithm cannot
// function at the low end of the paper's B_prc range).
func newCollector(p crowd.Platform, opts Options, targets []string, bPrc crowd.Cost) *collector {
	n1 := opts.N1
	exPrice := p.Pricing().Example
	// exPrice can be 0 when the platform's pricing is unavailable (e.g. a
	// remote client before its first successful fetch) or examples are
	// free; dividing by it would make maxExamples int(+Inf), which is
	// implementation-defined. Free examples put no pressure on the
	// budget, so the configured N1 stands.
	if bPrc > 0 && exPrice > 0 {
		maxExamples := int(float64(bPrc) * 0.4 / float64(exPrice) / float64(len(targets)))
		if maxExamples < n1 {
			n1 = maxExamples
		}
		if n1 < 30 {
			n1 = 30
		}
	}
	return &collector{
		p:         p,
		opts:      opts,
		targets:   append([]string(nil), targets...),
		n1:        n1,
		truth:     make(map[string][]float64),
		streams:   make(map[string][]crowd.Example),
		base:      make(map[string]*rawSamples),
		perTarget: make(map[string]map[string]*rawSamples),
		attrSet:   make(map[string]struct{}),
		memo:      newStatMemo(),
	}
}

// init fetches the N1 example objects per target (line 1 of Algorithm 1)
// and records their true target values.
func (c *collector) init() error {
	for _, t := range c.targets {
		ex, err := c.p.Examples([]string{t}, c.n1)
		if err != nil {
			return fmt.Errorf("core: collecting examples for %q: %w", t, err)
		}
		c.streams[t] = ex
		tv := make([]float64, len(ex))
		for i, e := range ex {
			tv[i] = e.Values[t]
		}
		c.truth[t] = tv
		c.perTarget[t] = make(map[string]*rawSamples)
	}
	return nil
}

// has reports whether the attribute was already added.
func (c *collector) has(attr string) bool {
	_, ok := c.attrSet[attr]
	return ok
}

// attributes returns the discovery-ordered attribute list (borrowed).
func (c *collector) attributes() []string { return c.attrs }

// costOfSamples is the price of k value questions per example on nStreams
// streams for the attribute.
func (c *collector) costOfSamples(attr string, nStreams int) crowd.Cost {
	price := c.p.Pricing().NumericValue
	if c.p.IsBinary(attr) {
		price = c.p.Pricing().BinaryValue
	}
	return crowd.Cost(c.opts.K*c.n1*nStreams) * price
}

// addAttribute samples the attribute on the base stream (always, for
// S_a/S_c and the base target's S_o) and on each of the extra target
// streams in pairs (for their S_o entries). This is the UpdateStatistics
// crowd work of Algorithm 1 / the Table 3 collection of Section 4.
func (c *collector) addAttribute(attr string, pairs []string) error {
	if c.has(attr) {
		return fmt.Errorf("core: attribute %q already collected", attr)
	}
	streams := make([]string, 0, 1+len(pairs))
	streams = append(streams, c.targets[0])
	for _, t := range pairs {
		if t != c.targets[0] { // the base stream already covers the base target
			streams = append(streams, t)
		}
	}
	results := make([]*rawSamples, len(streams))
	// Independent streams fan out over the shared pool — but only when
	// the whole attribute is affordable up front. Nothing else charges
	// the preprocessing ledger while addAttribute runs, so an up-front
	// CanAfford makes mid-flight exhaustion impossible on the parallel
	// path; when the check fails, the sequential loop preserves exactly
	// today's exhaustion point (which question fails, what was charged).
	if len(streams) > 1 && c.p.Ledger().CanAfford(c.costOfSamples(attr, len(streams))) {
		errs := make([]error, len(streams))
		ForEach(len(streams), 0, func(i int) {
			results[i], errs[i] = c.sampleOnStream(attr, streams[i])
		})
		// Report the first failing stream in stream order, matching the
		// sequential path's error selection.
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	} else {
		for i, t := range streams {
			rs, err := c.sampleOnStream(attr, t)
			if err != nil {
				return err
			}
			results[i] = rs
		}
	}
	// Commit only after every stream succeeded, so a budget failure
	// mid-collection does not leave a half-measured attribute behind.
	c.base[attr] = results[0]
	for i := 1; i < len(streams); i++ {
		c.perTarget[streams[i]][attr] = results[i]
	}
	c.attrs = append(c.attrs, attr)
	c.attrSet[attr] = struct{}{}
	return nil
}

// sampleOnStream asks the k value questions per example for one
// (attribute × stream) as a single multi-object batch — one wire round
// trip on platforms with a batching transport.
func (c *collector) sampleOnStream(attr, target string) (*rawSamples, error) {
	stream := c.streams[target][:c.n1]
	qs := make([]crowd.ObjectValueQuestion, len(stream))
	for i, e := range stream {
		qs[i] = crowd.ObjectValueQuestion{Object: e.Object, Attr: attr, N: c.opts.K}
	}
	answers, err := c.p.Values(qs)
	if err != nil {
		return nil, fmt.Errorf("core: sampling %q on %q stream: %w", attr, target, err)
	}
	rs := newRawSamples(len(stream), c.opts.K)
	for _, ans := range answers {
		rs.appendExample(ans.Values)
	}
	return rs, nil
}

// compute derives the Statistics trio from everything collected so far.
// The collector-owned memo turns every call after the first into matrix
// assembly over the already-accumulated moments.
func (c *collector) compute() (*Statistics, error) {
	return computeStatisticsMemo(c.attrs, c.targets, c.base, c.perTarget, c.truth, c.opts.K, c.opts.Estimation, c.memo)
}

// defaultWeights returns the paper's ω_t = 1/Var(O.a_t), estimated from
// the example streams' true values, "so that no query attribute will be
// negligible".
func (c *collector) defaultWeights() map[string]float64 {
	w := make(map[string]float64, len(c.targets))
	for _, t := range c.targets {
		v, err := stats.Variance(c.truth[t])
		if err != nil || v <= 0 {
			w[t] = 1
			continue
		}
		w[t] = 1 / v
	}
	return w
}

// choosePairs implements the Section 4 collection rule: when dismantling
// parent yields newAttr, pair newAttr with target a_t iff the estimated
// correlation ρ̂(a_t, newAttr) = RhoPrior·ρ̂(a_t, parent) is at least half
// the maximum over targets — which reduces to comparing ρ̂(a_t, parent)
// across targets. The base target is never returned (its stream is always
// sampled). CollectFull pairs all targets, CollectOneConnection only the
// best one.
func choosePairs(s *Statistics, parent string, targets []string, policy CollectionPolicy) []string {
	if len(targets) <= 1 {
		return nil
	}
	rest := targets[1:]
	switch policy {
	case CollectFull:
		return append([]string(nil), rest...)
	case CollectOneConnection:
		bestT := ""
		bestRho := -1.0
		for _, t := range targets {
			rho, err := s.EstimatedCorrelation(t, parent)
			if err != nil {
				continue
			}
			if rho > bestRho {
				bestRho, bestT = rho, t
			}
		}
		if bestT == "" || bestT == targets[0] {
			return nil
		}
		return []string{bestT}
	default: // CollectSelective
		rhos := make(map[string]float64, len(targets))
		maxRho := 0.0
		for _, t := range targets {
			rho, err := s.EstimatedCorrelation(t, parent)
			if err != nil {
				continue
			}
			rhos[t] = rho
			if rho > maxRho {
				maxRho = rho
			}
		}
		var out []string
		for _, t := range rest {
			if rhos[t] >= 0.5*maxRho {
				out = append(out, t)
			}
		}
		sort.Strings(out)
		return out
	}
}
