package rmi

// WAN resilience for remote invocations: per-call timeouts, capped
// exponential backoff with a runtime-wide retry budget, and a
// per-destination circuit breaker.
//
// All of it is opt-in (Options.Resilient), and its metric families are
// registered only then, so resilience-free runs export byte-identical
// metrics snapshots.

import (
	"errors"
	"fmt"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
)

// noopCloser avoids allocating a fresh closure per untraced first attempt.
var noopCloser = func() {}

// ErrCallTimeout wraps remote calls that waited out the per-call timeout
// after the network silently dropped a request or reply.
var ErrCallTimeout = errors.New("rmi: call timed out")

// BreakerOpenError is returned without touching the network when the circuit
// breaker for a caller->target pair is open.
type BreakerOpenError struct {
	Caller, Target string
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("rmi: circuit breaker open for %s -> %s", e.Caller, e.Target)
}

// The WAN-degradation policy Options.Resilient arms. A remote call that
// fails at the transport level (unreachable, dropped, timed out) is retried:
// a silently dropped request or reply costs the caller callTimeout before it
// is declared lost (an unreachable destination refuses the connection at
// once), there are maxAttempts tries in all, the first retry waits
// backoffBase and each later one twice the last, up to backoffMax, and
// retryBudget caps the retries of the runtime's lifetime, so a storm of
// failing calls degrades to fail-fast instead of multiplying offered load.
// Application errors returned by the remote handler are never retried. Note
// the at-least-once caveat: a reply dropped after the handler ran is
// indistinguishable from a dropped request, so retried methods should be
// idempotent.
//
// After breakerThreshold consecutive network failures from one caller node
// to one target node the breaker opens and calls fail fast; after
// breakerCooldown a single probe is let through (half-open) and its outcome
// closes or re-opens the circuit.
const (
	callTimeout      = time.Second
	maxAttempts      = 3
	backoffBase      = 200 * time.Millisecond
	backoffMax       = 2 * time.Second
	retryBudget      = 1 << 30
	breakerThreshold = 5
	breakerCooldown  = 10 * time.Second
)

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

type breakerState struct {
	state    int
	fails    int
	openedAt time.Duration
}

// resilience is the runtime's resilience state; nil when Options.Resilient
// is off.
type resilience struct {
	budgetUsed int64
	breakers   map[string]*breakerState // "caller|target"

	mRetries     *metrics.Counter
	mTimeouts    *metrics.Counter
	mBudgetOut   *metrics.Counter
	mFastFails   *metrics.Counter
	mTransitions *metrics.CounterVec
}

func newResilience(reg *metrics.Registry, on bool) *resilience {
	if !on {
		return nil
	}
	return &resilience{
		breakers:     make(map[string]*breakerState),
		mRetries:     reg.Counter("rmi_retries_total"),
		mTimeouts:    reg.Counter("rmi_call_timeouts_total"),
		mBudgetOut:   reg.Counter("rmi_retry_budget_exhausted_total"),
		mFastFails:   reg.Counter("rmi_breaker_fastfail_total"),
		mTransitions: reg.CounterVec("rmi_breaker_transitions_total", "to"),
	}
}

func (res *resilience) transition(b *breakerState, to int, now time.Duration) {
	b.state = to
	switch to {
	case breakerOpen:
		b.openedAt = now
		res.mTransitions.With("open").Inc()
	case breakerHalfOpen:
		res.mTransitions.With("half-open").Inc()
	case breakerClosed:
		b.fails = 0
		res.mTransitions.With("closed").Inc()
	}
}

// allow gates one attempt through the breaker for key, failing fast while
// the circuit is open and cooling down.
func (res *resilience) allow(now time.Duration, caller, target string) error {
	key := caller + "|" + target
	b := res.breakers[key]
	if b == nil {
		b = &breakerState{}
		res.breakers[key] = b
	}
	switch b.state {
	case breakerOpen:
		if now-b.openedAt >= breakerCooldown {
			res.transition(b, breakerHalfOpen, now)
			return nil
		}
		res.mFastFails.Inc()
		return &BreakerOpenError{Caller: caller, Target: target}
	default:
		return nil
	}
}

// record feeds one attempt's outcome (network-level ok or failure) back into
// the breaker.
func (res *resilience) record(now time.Duration, caller, target string, ok bool) {
	b := res.breakers[caller+"|"+target]
	if b == nil {
		return
	}
	if ok {
		if b.state != breakerClosed {
			res.transition(b, breakerClosed, now)
		}
		b.fails = 0
		return
	}
	b.fails++
	switch {
	case b.state == breakerHalfOpen:
		res.transition(b, breakerOpen, now)
	case b.state == breakerClosed && b.fails >= breakerThreshold:
		res.transition(b, breakerOpen, now)
	}
}

// takeBudget consumes one retry from the runtime-wide budget.
func (res *resilience) takeBudget() bool {
	if res.budgetUsed >= retryBudget {
		res.mBudgetOut.Inc()
		return false
	}
	res.budgetUsed++
	return true
}

// isNetworkError reports whether err is a transport-level failure (and thus
// retryable), as opposed to an application error from the remote handler.
func isNetworkError(err error) bool {
	var ue *simnet.UnreachableError
	var de *simnet.DroppedError
	return errors.As(err, &ue) || errors.As(err, &de) || errors.Is(err, ErrCallTimeout)
}

// transferOrTimeout performs one one-way transfer over r. Under resilience
// a silent drop charges the per-call timeout (the caller has no signal until
// its timer fires) and maps to ErrCallTimeout; without it the drop is the
// error.
func (s *Stub) transferOrTimeout(p *sim.Proc, r *simnet.Route, bytes int) error {
	err := r.Transfer(p, bytes)
	if res := s.rt.resil; res != nil && err != nil {
		var de *simnet.DroppedError
		if errors.As(err, &de) {
			res.mTimeouts.Inc()
			p.Sleep(callTimeout)
			return fmt.Errorf("%w (%s -> %s)", ErrCallTimeout, de.From, de.To)
		}
	}
	return err
}

// attempt performs one marshal + request + dispatch + reply exchange.
func (s *Stub) attempt(p *sim.Proc, call *Call, reqBytes, replyBytes int) (any, error) {
	p.Sleep(MarshalCPU)
	out, back := s.routes()
	if err := s.transferOrTimeout(p, out, reqBytes); err != nil {
		return nil, fmt.Errorf("rmi: invoke %s.%s: %w", s.obj.Name, call.Method, err)
	}
	result, err := s.obj.h(p, call)
	if terr := s.transferOrTimeout(p, back, replyBytes); terr != nil {
		return nil, fmt.Errorf("rmi: invoke %s.%s (reply): %w", s.obj.Name, call.Method, terr)
	}
	// Extra round trips for RMI ping/DGC traffic.
	if extra := s.rt.opts.Rounds - 1; extra > 0 {
		if rtt, rttErr := out.RTT(); rttErr == nil {
			p.Sleep(time.Duration(extra * float64(rtt)))
		}
	}
	return result, err
}

// invokeRemote is the one remote-call path: breaker gate, attempt, then
// capped exponential backoff while the failure is network-level and budget
// remains. Without resilience it makes one attempt and no breaker check.
func (s *Stub) invokeRemote(p *sim.Proc, call *Call, reqBytes, replyBytes int) (any, error) {
	rt := s.rt
	res := rt.resil
	start := p.Now()
	backoff := backoffBase
	for attempt := 1; ; attempt++ {
		if res != nil {
			if err := res.allow(p.Now(), s.caller, s.obj.Node); err != nil {
				return nil, err
			}
		}
		// Re-attempts after a network failure are charged to retry/backoff
		// in the critical-path decomposition; the first attempt stays part
		// of the surrounding rmi span (WAN wait).
		endAttempt := noopCloser
		if attempt > 1 {
			endAttempt = trace.Opf(p, "retry", s.obj.Node, "", trace.CauseRetry, "reattempt ", call.Method, "")
		}
		result, err := s.attempt(p, call, reqBytes, replyBytes)
		endAttempt()
		netFail := err != nil && isNetworkError(err)
		if res != nil {
			res.record(p.Now(), s.caller, s.obj.Node, !netFail)
		}
		if !netFail {
			rt.mRemoteNs.Observe(p.Now() - start)
			return result, err
		}
		if res == nil || attempt >= maxAttempts || !res.takeBudget() {
			return nil, err
		}
		res.mRetries.Inc()
		endBackoff := trace.Op(p, "retry", "backoff", s.caller, "", trace.CauseRetry)
		p.Sleep(backoff)
		endBackoff()
		backoff = min(2*backoff, backoffMax)
	}
}
