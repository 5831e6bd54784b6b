package core

import "time"

// The serve-stale bounds Options.Resilience arms on AutoWired replicas and
// caches: 60 s replica TTLs, and a 30 min serve-stale bound — long enough to
// ride out the canonical outage's 15-minute partition at full run length.
// The call and delivery policies it arms are the rmi and jms packages' own.
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
