package crowd

// NewBatched adapts a platform's batching behaviour without changing its
// answers:
//
//   - size == 0 returns p unchanged (one exchange per Values call);
//   - size > 0 splits every Values call into exchanges of at most size
//     questions;
//   - size < 0 splits into exchanges of one question each (the unbatched
//     control in experiments and benchmarks).
//
// Because Platform memoizes per question identity, every shape produces
// byte-identical answers and charges — only the exchange granularity
// differs. The experiment harness threads PlatformConfig.BatchSize
// through here.
func NewBatched(p Platform, size int) Platform {
	if size == 0 {
		return p
	}
	if size < 0 {
		size = 1
	}
	return &batchedPlatform{Platform: p, size: size}
}

// batchedPlatform chunks Values calls to a maximum size.
type batchedPlatform struct {
	Platform
	size int
}

// Values implements Platform with chunking.
func (b *batchedPlatform) Values(qs []ObjectValueQuestion) ([]ValueAnswers, error) {
	if len(qs) <= b.size {
		return b.Platform.Values(qs)
	}
	out := make([]ValueAnswers, 0, len(qs))
	for start := 0; start < len(qs); start += b.size {
		end := start + b.size
		if end > len(qs) {
			end = len(qs)
		}
		ans, err := b.Platform.Values(qs[start:end])
		if err != nil {
			return nil, err
		}
		out = append(out, ans...)
	}
	return out, nil
}

// ForkPlatform implements Platform by rewrapping a fork of the wrapped
// platform with the same chunk size; nil when it cannot fork.
func (b *batchedPlatform) ForkPlatform() Platform {
	inner := b.Platform.ForkPlatform()
	if inner == nil {
		return nil
	}
	return &batchedPlatform{Platform: inner, size: b.size}
}
