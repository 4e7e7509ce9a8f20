package crowd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/domain"
)

// ErrUnknownAttribute is returned when a value question targets a name the
// simulated universe cannot resolve (a real crowd would answer anything; a
// simulator needs ground truth to answer from).
var ErrUnknownAttribute = errors.New("crowd: unknown attribute")

// SimOptions configures the simulated platform.
type SimOptions struct {
	// Seed drives all randomness; equal seeds give byte-identical answer
	// streams regardless of the order questions are asked in.
	Seed int64
	// Pricing is the payment scheme; zero value means DefaultPricing.
	Pricing Pricing
	// PoolSize is the number of distinct simulated workers (default 500).
	PoolSize int
	// SpamRate is the fraction of workers who answer randomly before
	// filtering (Section 2 assumes "spam filters are employed"; default 0).
	SpamRate float64
	// FilterEfficiency is the probability the spam filter catches a spam
	// worker; 0 means no filtering.
	FilterEfficiency float64
	// DisableUnification turns off synonym merging (the Section 5.4
	// "Normalization Mechanism" ablation): Canonical becomes the identity
	// and distinct synonyms are reported as distinct attributes.
	DisableUnification bool
	// IrrelevantRate mixes extra junk into dismantling answers (the
	// Section 5.4 "Attributes Quality" ablation): with this probability a
	// dismantling answer is replaced by a uniformly random attribute.
	IrrelevantRate float64
	// BudgetLimit initializes the ledger (0 = unlimited).
	BudgetLimit Cost
}

// numShards is the fixed shard count of the simulator's mutable state.
// Object-keyed answer caches shard by object id and string-keyed question
// streams by name hash, so concurrent questions about different objects
// (or different attributes) almost never contend on the same mutex. 32
// shards keep contention negligible up to well past the core counts the
// experiment harness saturates.
const numShards = 32

// objShard holds one shard of a platform's object-keyed fork-local state:
// how many answers of each (object, attribute) stream this platform has
// charged its ledger for, and the provenance of objects this platform
// materialized from example-stream prototypes.
type objShard struct {
	mu   sync.Mutex
	paid map[valueKey]int
	prov map[int]provEntry
}

// provEntry records that a platform handed out obj (a materialized view of
// an example-stream prototype) under its id. The pointer is checked on
// lookup so an unrelated object that happens to carry the same id (e.g.
// allocated from the universe after this platform's snapshot) is not
// confused with the stream object.
type provEntry struct {
	obj *domain.Object
	key string // "streamKey\x00pos"
}

// streamShard holds one shard of a platform's string-keyed fork-local
// state: materialized example streams and the dismantling/verification
// cursors.
type streamShard struct {
	mu       sync.Mutex
	examples map[string][]Example
	nextAsk  map[string]int // per-attribute dismantling answer index
	nVerify  map[string]int // per (candidate,target) verification index
}

// SimPlatform is a deterministic simulated crowd over a domain.Universe.
// It implements Platform and is safe for concurrent use. See the package
// comment for the fidelity argument.
//
// A SimPlatform is a *view* over a shared answer store: the store holds
// every answer ever generated (each a pure function of the seed and the
// full question identity — object, attribute, stream position), while the
// platform holds what this view has paid for: its ledger, per-question
// charge counts and stream cursors. Snapshot/Fork create further views
// over the same store (see snapshot.go), which is how a budget sweep
// re-runs the same seeded crowd many times while simulating each answer
// once.
//
// Concurrency design: all mutable state is split into fixed shards, each
// guarded by its own mutex; the ledger uses atomic adds; read-mostly
// metadata (pricing, attribute meta, canonicalization) is immutable after
// construction, and the dismantling-distribution cache sits behind an
// RWMutex. Shards carry no RNG state: every answer derives an independent
// generator from the platform seed and the full question identity, which
// is what makes the answer stream per (object, attribute) deterministic
// regardless of question order, interleaving or parallelism — the paper's
// recorded-answers methodology, preserved under concurrency.
type SimPlatform struct {
	store *simStore

	ledger atomic.Pointer[Ledger]

	// ids allocates object ids for materialized example objects: the root
	// platform draws from the universe's live counter, forks from a
	// private counter starting at the snapshot's base — so a fork assigns
	// exactly the ids a freshly built platform would, without perturbing
	// its siblings.
	ids idAllocator

	objShards    [numShards]objShard
	streamShards [numShards]streamShard
}

// valueKey identifies one value-answer stream. prov is "" for objects the
// caller brought (their id is their identity within the shared universe)
// and "streamKey\x00pos" for objects the simulator created as examples —
// forks can assign the same id to different stream objects, so the
// provenance disambiguates which latent state an id refers to.
type valueKey struct {
	objID int
	prov  string
	attr  string // canonical
}

// objShard returns the shard guarding the object's fork-local value state.
func (p *SimPlatform) objShard(objID int) *objShard {
	return &p.objShards[uint(objID)%numShards]
}

// streamShard returns the shard guarding a string-keyed question stream.
func (p *SimPlatform) streamShard(key string) *streamShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &p.streamShards[h.Sum32()%numShards]
}

// NewSim builds a simulated platform over the universe.
func NewSim(u *domain.Universe, opts SimOptions) (*SimPlatform, error) {
	if u == nil {
		return nil, errors.New("crowd: nil universe")
	}
	if opts.Pricing == (Pricing{}) {
		opts.Pricing = DefaultPricing()
	}
	if err := opts.Pricing.Validate(); err != nil {
		return nil, err
	}
	if opts.PoolSize == 0 {
		opts.PoolSize = 500
	}
	if opts.PoolSize < 1 {
		return nil, fmt.Errorf("crowd: pool size %d", opts.PoolSize)
	}
	if opts.SpamRate < 0 || opts.SpamRate > 1 {
		return nil, fmt.Errorf("crowd: spam rate %v out of [0,1]", opts.SpamRate)
	}
	if opts.FilterEfficiency < 0 || opts.FilterEfficiency > 1 {
		return nil, fmt.Errorf("crowd: filter efficiency %v out of [0,1]", opts.FilterEfficiency)
	}
	if opts.IrrelevantRate < 0 || opts.IrrelevantRate > 1 {
		return nil, fmt.Errorf("crowd: irrelevant rate %v out of [0,1]", opts.IrrelevantRate)
	}
	p := newView(newSimStore(u, opts))
	p.ids.u = u
	return p, nil
}

// newView builds an empty platform view over a store (no questions asked,
// fresh ledger). The caller wires the id allocator.
func newView(store *simStore) *SimPlatform {
	p := &SimPlatform{store: store}
	p.ledger.Store(NewLedger(store.opts.BudgetLimit))
	for i := range p.objShards {
		p.objShards[i].paid = make(map[valueKey]int)
		p.objShards[i].prov = make(map[int]provEntry)
	}
	for i := range p.streamShards {
		p.streamShards[i].examples = make(map[string][]Example)
		p.streamShards[i].nextAsk = make(map[string]int)
		p.streamShards[i].nVerify = make(map[string]int)
	}
	return p
}

// Universe exposes the underlying universe (used by experiment harnesses to
// compute true errors; algorithms must not peek).
func (p *SimPlatform) Universe() *domain.Universe { return p.store.u }

// provOf resolves the value-stream identity of an object under the shard
// lock: the provenance key when this platform materialized the object from
// an example prototype, "" (the shared-universe id is the identity) for
// everything else.
func (sh *objShard) provOf(o *domain.Object) string {
	if e, ok := sh.prov[o.ID]; ok && e.obj == o {
		return e.key
	}
	return ""
}

// Value returns the first n answers about o.attr — Values for a batch
// of one, without the batch. Answers are cached per (object, attribute);
// only newly generated answers are charged.
func (p *SimPlatform) Value(o *domain.Object, attr string, n int) ([]float64, error) {
	ans, _, err := p.value(o, attr, n)
	return ans, err
}

// value answers one question and returns the answer stream's key, which
// locates the workers behind the answers.
func (p *SimPlatform) value(o *domain.Object, attr string, n int) ([]float64, valueKey, error) {
	if o == nil {
		return nil, valueKey{}, errors.New("crowd: nil object")
	}
	if n < 0 {
		return nil, valueKey{}, fmt.Errorf("crowd: negative answer count %d", n)
	}
	canon, err := p.store.u.Canonical(attr)
	if err != nil {
		return nil, valueKey{}, fmt.Errorf("%w: %q", ErrUnknownAttribute, attr)
	}
	meta, err := p.store.u.Attribute(canon)
	if err != nil {
		return nil, valueKey{}, err
	}
	// Workers answer around the crowd consensus, which carries the
	// attribute's systematic per-object distortion away from the truth.
	consensus, err := p.store.u.Consensus(o, canon)
	if err != nil {
		return nil, valueKey{}, err
	}
	price := p.store.opts.Pricing.NumericValue
	kind := NumericValue
	if meta.Binary {
		price = p.store.opts.Pricing.BinaryValue
		kind = BinaryValue
	}

	sh := p.objShard(o.ID)
	ledger := p.ledger.Load()
	sh.mu.Lock()
	key := valueKey{objID: o.ID, prov: sh.provOf(o), attr: canon}
	paid := sh.paid[key]
	for paid < n {
		if err := ledger.Charge(kind, price); err != nil {
			sh.paid[key] = paid
			sh.mu.Unlock()
			return nil, valueKey{}, err
		}
		paid++
	}
	sh.paid[key] = paid
	sh.mu.Unlock()
	return p.store.valueAnswers(key, n, meta, consensus), key, nil
}

// Values implements Platform. Simulated answers are a pure function of
// the seed and the question identity, so a batch is exactly its
// questions answered in order, and the simulated worker identities —
// what a real platform reports and what quality management [19] needs —
// come from the same store.
func (p *SimPlatform) Values(qs []ObjectValueQuestion) ([]ValueAnswers, error) {
	out := make([]ValueAnswers, len(qs))
	for i, q := range qs {
		ans, key, err := p.value(q.Object, q.Attr, q.N)
		if err != nil {
			return nil, err
		}
		out[i].Values = ans
		if q.Workers {
			out[i].Workers = p.store.workerIDs(key, q.N)
		}
	}
	return out, nil
}

// Dismantle implements Platform: one worker's answer to "which attribute
// may help estimate attr?", drawn from the universe's dismantling-answer
// distribution (optionally polluted by IrrelevantRate).
func (p *SimPlatform) Dismantle(attr string) (string, error) {
	canon, err := p.store.u.Canonical(attr)
	if err != nil {
		return "", fmt.Errorf("%w: %q", ErrUnknownAttribute, attr)
	}
	if err := p.ledger.Load().Charge(Dismantling, p.store.opts.Pricing.Dismantling); err != nil {
		return "", err
	}
	d, err := p.store.distribution(canon)
	if err != nil {
		return "", err
	}
	sh := p.streamShard(canon)
	sh.mu.Lock()
	idx := sh.nextAsk[canon]
	sh.nextAsk[canon]++
	sh.mu.Unlock()
	return p.store.dismantleAnswer(canon, d, idx), nil
}

// Verify implements Platform: one worker's yes/no on whether knowing
// candidate helps estimate target. The yes-probability grows with the
// domain's relatedness measure — p = clamp(0.12 + 0.8·r, 0.05, 0.95) —
// which floors the marginal correlation by shared-mechanism strength, so
// a human's "of course height helps BMI" is modeled even where the
// marginal correlation vanishes, while junk like "is_black" is rejected.
func (p *SimPlatform) Verify(candidate, target string) (bool, error) {
	tCanon, err := p.store.u.Canonical(target)
	if err != nil {
		return false, fmt.Errorf("%w: target %q", ErrUnknownAttribute, target)
	}
	var rho float64
	if cCanon, err := p.store.u.Canonical(candidate); err == nil {
		rho, _ = p.store.u.Relatedness(cCanon, tCanon)
	}
	if err := p.ledger.Load().Charge(Verification, p.store.opts.Pricing.Verification); err != nil {
		return false, err
	}
	key := candidate + "\x00" + tCanon
	sh := p.streamShard(key)
	sh.mu.Lock()
	idx := sh.nVerify[key]
	sh.nVerify[key]++
	sh.mu.Unlock()
	pYes := 0.12 + 0.8*rho
	if pYes < 0.05 {
		pYes = 0.05
	} else if pYes > 0.95 {
		pYes = 0.95
	}
	return p.store.verifyAnswer(candidate, tCanon, pYes, idx), nil
}

// Examples implements Platform: the first n examples of the stream for the
// given targets, charging only newly generated ones. Values are the true
// ones (lab-member gold standard, Section 5.1).
func (p *SimPlatform) Examples(targets []string, n int) ([]Example, error) {
	if n < 0 {
		return nil, fmt.Errorf("crowd: negative example count %d", n)
	}
	if len(targets) == 0 {
		return nil, errors.New("crowd: example question needs target attributes")
	}
	canon := make([]string, len(targets))
	for i, t := range targets {
		c, err := p.store.u.Canonical(t)
		if err != nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, t)
		}
		canon[i] = c
	}
	sorted := append([]string(nil), canon...)
	sort.Strings(sorted)
	streamKey := strings.Join(sorted, "\x00")

	sh := p.streamShard(streamKey)
	ledger := p.ledger.Load()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	stream := sh.examples[streamKey]
	for len(stream) < n {
		if err := ledger.Charge(ExampleQuestion, p.store.opts.Pricing.Example); err != nil {
			sh.examples[streamKey] = stream
			return nil, err
		}
		pos := len(stream)
		proto, err := p.store.exampleProto(streamKey, canon, pos)
		if err != nil {
			return nil, err
		}
		// Materialize this view's identified object for the prototype: the
		// latent state is shared, the id comes from this platform's own
		// allocator — so the id sequence replays what a freshly built
		// platform would assign.
		obj := proto.obj.WithID(p.ids.alloc())
		osh := p.objShard(obj.ID)
		osh.mu.Lock()
		osh.prov[obj.ID] = provEntry{obj: obj, key: streamKey + "\x00" + fmt.Sprint(pos)}
		osh.mu.Unlock()
		stream = append(stream, Example{Object: obj, Values: proto.values})
	}
	sh.examples[streamKey] = stream
	out := make([]Example, n)
	copy(out, stream[:n])
	return out, nil
}

// Canonical implements Platform.
func (p *SimPlatform) Canonical(name string) string {
	if p.store.opts.DisableUnification {
		return strings.TrimSpace(name)
	}
	if c, err := p.store.u.Canonical(name); err == nil {
		return c
	}
	return strings.TrimSpace(name)
}

// Sigma implements Platform; unknown names get a neutral 1.
func (p *SimPlatform) Sigma(attr string) float64 {
	if s, err := p.store.u.TrueSigma(attr); err == nil {
		return s
	}
	return 1
}

// IsBinary implements Platform; unknown names are treated as numeric (the
// conservative, more expensive assumption).
func (p *SimPlatform) IsBinary(attr string) bool {
	a, err := p.store.u.Attribute(attr)
	return err == nil && a.Binary
}

// Pricing implements Platform.
func (p *SimPlatform) Pricing() Pricing { return p.store.opts.Pricing }

// Ledger implements Platform.
func (p *SimPlatform) Ledger() *Ledger {
	return p.ledger.Load()
}

// SetLedger implements Platform.
func (p *SimPlatform) SetLedger(l *Ledger) *Ledger {
	return p.ledger.Swap(l)
}

// Stats implements Platform: the simulator performs no wire round trips
// and injects no faults.
func (p *SimPlatform) Stats() Stats { return Stats{} }
