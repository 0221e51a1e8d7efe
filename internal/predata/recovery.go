package predata

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"predata/internal/faults"
)

// RetryPolicy bounds how the compute and staging runtimes react to
// transient fabric faults: capped exponential backoff between attempts,
// and a per-dump deadline on the staging side so a dump that cannot
// complete fails fast instead of wedging the collective staging area.
type RetryPolicy struct {
	// MaxAttempts is the attempt budget for one operation (send or pull).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry up to MaxDelay, with +-50% jitter to decorrelate retry storms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// DumpDeadline caps the wall time one ServeDump may spend gathering
	// fetch requests (including transient-retry loops).
	DumpDeadline time.Duration
	// HedgeFactor arms hedged pulls: when a chunk pull has taken longer
	// than HedgeFactor times its bandwidth-model estimate (floored at
	// HedgeFloor), a second attempt is launched against the retained
	// source region and the loser is cancelled via context. Zero selects
	// the default factor; negative disables hedging. Hedging only
	// engages on a paced fabric — without pacing a pull completes at
	// memory speed and there is no straggler to hedge against.
	HedgeFactor float64
	// HedgeFloor is the minimum wall delay before a hedge fires, so tiny
	// chunks do not hedge on scheduling noise. Zero selects the default.
	HedgeFloor time.Duration
}

// DefaultRetryPolicy returns the policy used when a field is zero.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:  8,
		BaseDelay:    200 * time.Microsecond,
		MaxDelay:     10 * time.Millisecond,
		DumpDeadline: 30 * time.Second,
		HedgeFactor:  4,
		HedgeFloor:   2 * time.Millisecond,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.DumpDeadline <= 0 {
		p.DumpDeadline = d.DumpDeadline
	}
	if p.HedgeFactor == 0 {
		p.HedgeFactor = d.HedgeFactor
	}
	if p.HedgeFloor <= 0 {
		p.HedgeFloor = d.HedgeFloor
	}
	return p
}

// backoff returns the sleep before retry number retry (0-based): doubling
// from BaseDelay, capped at MaxDelay, jittered into [0.5, 1.5)x. Jitter
// deliberately uses the global generator — it has no effect on *which*
// faults fire, so reproducibility does not depend on it.
func (p RetryPolicy) backoff(retry int) time.Duration {
	return p.backoffAt(retry, rand.Float64())
}

// backoffAt is backoff with the jitter sample u (in [0,1)) made explicit,
// so tests can drive the schedule from a seeded source.
func (p RetryPolicy) backoffAt(retry int, u float64) time.Duration {
	d := p.BaseDelay
	for i := 0; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return time.Duration(float64(d) * (0.5 + u))
}

// liveStagingAt returns the staging indices whose endpoints the plan has
// not crashed by dump, in ascending order. With a nil injector every
// index is live.
func liveStagingAt(inj *faults.Injector, stagingBase, numStaging int, dump int64) []int {
	live := make([]int, 0, numStaging)
	for i := 0; i < numStaging; i++ {
		if !inj.DownAt(stagingBase+i, dump) {
			live = append(live, i)
		}
	}
	return live
}

// stagingReachAt counts the live staging ranks (itself included) that
// staging index i reaches at dump — the dump-aligned probe. A rank that
// reaches no strict majority of the live set has lost quorum and is
// *fenced* for the window: it is alive but must not serve, or the two
// sides of the cut would run split-brain dumps against the same
// membership epoch.
func stagingReachAt(inj *faults.Injector, stagingBase int, live []int, i int, dump int64) int {
	reach := 0
	for _, j := range live {
		if j == i || !inj.Unreachable(stagingBase+i, stagingBase+j, dump) {
			reach++
		}
	}
	return reach
}

// activeStagingAt returns the staging indices the fault plan lets serve
// at dump: the live (uncrashed) set, minus ranks a partition fences away
// from the staging-side quorum, minus ranks sitting out a restart window
// (down for the bounce but still live membership — they rejoin with
// their journal). With no partitions or restarts in the plan it is
// exactly liveStagingAt, so crash-only schedules keep their behavior.
func activeStagingAt(inj *faults.Injector, stagingBase, numStaging int, dump int64) []int {
	live := liveStagingAt(inj, stagingBase, numStaging, dump)
	if len(inj.Plan().Partitions) == 0 && len(inj.Plan().Restarts) == 0 {
		return live
	}
	active := make([]int, 0, len(live))
	for _, i := range live {
		if inj.RestartDownAt(stagingBase+i, dump) || 2*stagingReachAt(inj, stagingBase, live, i, dump) <= len(live) {
			continue
		}
		active = append(active, i)
	}
	return active
}

// View is one dump's staging membership: the epoch that installed it
// and the ascending staging indices that serve the dump.
type View struct {
	Epoch  int64
	Active []int
}

// membership is the one view source every party consults: clients route
// with it, servers derive their served writers from it, and the staging
// driver installs the views it yields. It derives each dump's membership
// from shared state alone — the fault plan's live set, quorum verdicts
// and restart windows, and on elastic runs the autoscaler's announced
// pool size — so producers and staging ranks agree on every dump's
// request census without running a membership protocol.
type membership struct {
	inj         *faults.Injector
	stagingBase int
	// all is every staging index; faulty reports a plan that changes
	// membership (crashes, partitions or restarts).
	all    []int
	faulty bool
	// poolSize, when non-nil, returns the autoscaler's announced active
	// count for a dump, waiting (deadline-bounded) for the announcement.
	poolSize func(dump int64) (int, error)
}

func newMembership(inj *faults.Injector, stagingBase, numStaging int, poolSize func(int64) (int, error)) *membership {
	plan := inj.Plan()
	return &membership{
		inj:         inj,
		stagingBase: stagingBase,
		all:         liveStagingAt(nil, stagingBase, numStaging, 0),
		faulty:      len(plan.Crashes)+len(plan.Partitions)+len(plan.Restarts) > 0,
		poolSize:    poolSize,
	}
}

// fixed reports that every dump's view is the whole staging area.
func (m *membership) fixed() bool { return !m.faulty && m.poolSize == nil }

// view returns dump's pool — the staging indices routes map over — and
// its active set, the ranks that serve it. A fixed-size pool is the
// whole staging area and its active set whatever the fault plan leaves
// serving; an elastic pool is the first poolSize ranks of that set, so
// a fenced or bouncing rank's place goes to a reserve.
func (m *membership) view(dump int64) (pool, active []int, err error) {
	if m.fixed() {
		return m.all, m.all, nil
	}
	active = activeStagingAt(m.inj, m.stagingBase, len(m.all), dump)
	if m.poolSize == nil {
		return m.all, active, nil
	}
	n, err := m.poolSize(dump)
	if err != nil {
		return nil, nil, fmt.Errorf("predata: resolving dump %d staging membership: %w", dump, err)
	}
	active = active[:min(n, len(active))]
	return active, active, nil
}

// degradedAt reports whether the fault plan leaves fewer than every
// staging rank serving at dump.
func (m *membership) degradedAt(dump int64) bool {
	return m.faulty && len(activeStagingAt(m.inj, m.stagingBase, len(m.all), dump)) < len(m.all)
}

// place resolves the staging index serving writerRank in a dump's view:
// its route over the pool, rehashed onto the active set when that rank
// is out of it (crashed, fenced, parked), and walked past staging ranks
// the writer cannot reach when a partition cuts the link. The
// conventional layout is assumed: writer rank r lives at fabric
// endpoint r.
func (m *membership) place(pool, active []int, route RouteFunc, writerRank, numCompute int, dump int64) (idx int, rerouted bool, err error) {
	if len(active) == 0 {
		if len(liveStagingAt(m.inj, m.stagingBase, len(m.all), dump)) == 0 {
			return 0, false, fmt.Errorf("predata: no staging rank alive at dump %d: %w", dump, faults.ErrEndpointDown)
		}
		return 0, false, fmt.Errorf("predata: no staging rank holds quorum at dump %d (partition split the staging area evenly): %w",
			dump, faults.ErrUnreachable)
	}
	slot := route(writerRank, numCompute, len(pool))
	reachable := func(i int) bool {
		return !m.inj.Unreachable(writerRank, m.stagingBase+i, dump)
	}
	if primary := pool[slot]; slices.Contains(active, primary) && reachable(primary) {
		return primary, false, nil
	}
	// Walk the active set starting from the crash-rehash position, so
	// crash-only plans land exactly where they always did, and a writer
	// partitioned from that rank slides to the next reachable one.
	for k := 0; k < len(active); k++ {
		if c := active[(slot+k)%len(active)]; reachable(c) {
			return c, c != pool[slot], nil
		}
	}
	return 0, false, fmt.Errorf("predata: writer %d cannot reach any active staging rank at dump %d: %w",
		writerRank, dump, faults.ErrUnreachable)
}
