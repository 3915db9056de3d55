package ilm

import (
	"errors"
	"fmt"
	"time"

	"pie/api"
	"pie/internal/sim"
)

// RetryPolicy controls how a launch survives retryable failures — replica
// death (api.ErrReplicaLost) and injected transient faults
// (api.ErrTransientFault). A launch that fails retryably is requeued onto
// a surviving replica after a capped exponential backoff with
// deterministic jitter; everything else surfaces immediately. The zero
// value disables retries (every failure is final), preserving the
// pre-fault-layer behavior.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts including the first; <= 1 means
	// no retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it (default 2ms when retries are enabled).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 50ms).
	MaxBackoff time.Duration
	// Budget caps cumulative backoff across all retries of one launch;
	// when the next delay would exceed it, the launch fails with
	// api.ErrRetryBudgetExhausted. Zero means unlimited.
	Budget time.Duration
	// Jitter spreads each delay uniformly over [d·(1-J), d·(1+J)) so
	// launches evacuated off a dead replica do not thundering-herd the
	// survivors. 0 takes the default 0.2; negative disables jitter. The
	// jitter stream is seeded per handle, so runs replay byte-identically.
	Jitter float64
}

// Enabled reports whether the policy permits any retry.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// withDefaults normalizes the policy, substituting fallback for the zero
// value (the engine-level default retry policy).
func (p RetryPolicy) withDefaults(fallback RetryPolicy) RetryPolicy {
	if p == (RetryPolicy{}) {
		p = fallback
	}
	if !p.Enabled() {
		return p
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = 0.2
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// Delay prices the backoff before retry number retry (1-based: the delay
// after the first failed attempt is Delay(1)): BaseBackoff doubled per
// retry, capped at MaxBackoff, jittered by ±Jitter from rng. Determinism
// contract: the same rng stream yields the same delays.
func (p RetryPolicy) Delay(retry int, rng *sim.RNG) time.Duration {
	if retry < 1 {
		retry = 1
	}
	d := p.BaseBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= p.MaxBackoff || d < 0 {
			d = p.MaxBackoff
			break
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 && rng != nil {
		d = time.Duration(float64(d) * (1 - p.Jitter + 2*p.Jitter*rng.Float64()))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Retryable reports whether an error class may be retried under a
// RetryPolicy: replica loss and transient faults, nothing else (aborts,
// deadlines, manifest errors, and FCFS terminations are final).
func Retryable(err error) bool {
	return errors.Is(err, api.ErrReplicaLost) || errors.Is(err, api.ErrTransientFault)
}

// nextRetryDelay decides the handle's fate after a failed attempt: either
// the backoff to sleep before the next attempt (nil error), or the final
// error to surface — the cause itself when retry is impossible, or a
// typed api.ErrRetryBudgetExhausted when the backoff budget ran dry.
func (h *Handle) nextRetryDelay(cause error) (time.Duration, error) {
	p := h.policy
	if !p.Enabled() || !Retryable(cause) || h.attempts >= p.MaxAttempts {
		return 0, cause
	}
	d := p.Delay(h.attempts, &h.retryRNG)
	if p.Budget > 0 && h.backoffSpent+d > p.Budget {
		return 0, fmt.Errorf("%w after %d attempt(s), %v of %v backoff spent: %w",
			api.ErrRetryBudgetExhausted, h.attempts, h.backoffSpent, p.Budget, cause)
	}
	h.backoffSpent += d
	return d, nil
}
