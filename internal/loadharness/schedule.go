package loadharness

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// DistExponential names the arrival law in records: a Poisson process,
// exponential inter-arrival gaps — the standard open-world client model.
const DistExponential = "exp"

// Arrivals is a seeded arrival-time schedule at a fixed mean rate. The
// schedule is decided by the seed alone — never by how the server is
// responding — which is what makes the generator open-loop: Next keeps
// handing out intended start times on the same clock whether or not the
// previous requests have completed.
type Arrivals struct {
	rng  *rand.Rand
	mean float64 // mean inter-arrival gap in seconds
	next float64 // next arrival offset from schedule start, seconds
}

// NewArrivals builds a Poisson schedule with mean arrival rate `rate`
// requests per second.
func NewArrivals(rate float64, seed int64) (*Arrivals, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadharness: arrival rate must be positive, got %g", rate)
	}
	return &Arrivals{rng: rand.New(rand.NewSource(seed)), mean: 1 / rate}, nil
}

// Next returns the next intended start time as an offset from the
// schedule's start. Offsets are strictly non-decreasing.
func (a *Arrivals) Next() time.Duration {
	at := a.next
	// Clamp pathological tail draws so one 10-sigma gap cannot stall a
	// short smoke run.
	a.next = at + min(a.rng.ExpFloat64()*a.mean, 10*a.mean)
	return time.Duration(math.Round(at * 1e9))
}
