package retry

import "qfe/internal/obs"

// Process-wide retry-loop handles: every Policy.Do in the process (router
// proxying, failover adoptions, service.Client calls) feeds the same
// counters — a rising retry rate is the earliest cluster-distress signal,
// and give-ups are requests that turned into client-visible 503s.
var (
	mRetriesScheduled = obs.NewCounter("qfe_retry_backoffs_total",
		"Retries scheduled (backoff sleeps) across all retry loops.")
	mGiveups = obs.NewCounter("qfe_retry_giveups_total",
		"Retry loops that gave up (MaxAttempts or Budget exhausted).")
)
