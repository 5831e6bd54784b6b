package core

import (
	"time"

	"wadeploy/internal/jms"
	"wadeploy/internal/rmi"
)

// The WAN-degradation policies Options.Resilience arms across a deployment:
// 1 s call timeouts with three attempts and a 200 ms..2 s exponential
// backoff, a 5-failure breaker with a 10 s cooldown, six redelivery attempts
// 5 s apart, 60 s replica TTLs, and a 30 min serve-stale bound — long enough
// to ride out the canonical outage's 15-minute partition at full run length.
// The substrate layers only read them, so every deployment shares one copy.
var (
	resilienceRetry = rmi.RetryPolicy{
		CallTimeout: time.Second,
		MaxAttempts: 3,
		Backoff:     200 * time.Millisecond,
		BackoffMax:  2 * time.Second,
		Budget:      1 << 30,
	}
	resilienceBreaker    = rmi.BreakerPolicy{Threshold: 5, Cooldown: 10 * time.Second}
	resilienceRedelivery = jms.RedeliveryPolicy{MaxAttempts: 6, Delay: 5 * time.Second}
)

const (
	// replicaTTL bounds the freshness of edge replicas and of query caches
	// with a fetch path that the descriptor does not already bound
	// (spec.Update.MaxStaleness wins when set). Entries older than the TTL are refetched on access, which
	// is what exposes a WAN outage to the serve-stale fallback below.
	replicaTTL = time.Minute

	// staleMaxAge lets a failed refetch fall back to the expired local
	// copy while it is younger than this bound (serve-stale degradation).
	staleMaxAge = 30 * time.Minute
)
