package crowdhttp

import (
	"math/rand"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// srvPlatform exposes the server's wrapped platform for test setup.
func srvPlatform(s *Server) *crowd.SimPlatform {
	return s.platform.(*crowd.SimPlatform)
}

// testRand returns a fixed-seed generator.
func testRand() *rand.Rand { return rand.New(rand.NewSource(4321)) }

// valueBatch asks one object's questions as one Values exchange.
func valueBatch(p crowd.Platform, o *domain.Object, qs []crowd.ValueQuestion) ([][]float64, error) {
	oqs := make([]crowd.ObjectValueQuestion, len(qs))
	for i, q := range qs {
		oqs[i] = crowd.ObjectValueQuestion{Object: o, Attr: q.Attr, N: q.N}
	}
	ans, err := p.Values(oqs)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(ans))
	for i, a := range ans {
		out[i] = a.Values
	}
	return out, nil
}
