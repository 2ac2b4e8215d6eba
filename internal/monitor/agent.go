package monitor

import (
	"context"
	"errors"
	"time"
)

// Agent is the per-server collector: it polls its Source on the collection
// interval and hands each sample to the ReliableSender it holds, which
// ships acked envelopes to the warehouse. Samples collected while the
// warehouse is unreachable stay queued in the sender (up to its
// MaxPending; beyond it the oldest are dropped and counted) and ship on
// the next successful flush, so a warehouse restart costs latency, not
// data.
type Agent struct {
	// Source supplies the samples.
	Source Source
	// Sender ships them: its Addr, AgentID, MaxPending and backoff
	// settings govern delivery, and its Counters are the agent's
	// accounting. A ReliableSender is not safe for concurrent use, so
	// read Sender.Counters only after Run returns.
	Sender ReliableSender
	// Interval is the collection period (the paper's agents collect
	// every minute).
	Interval time.Duration
	// Now abstracts the clock so replayed traces can run on compressed
	// time; nil uses time.Now.
	Now func() time.Time
}

// agentFlushAttempts bounds the envelope round trips one collection tick
// spends; whatever is still unacked waits, queued, for the next tick.
const agentFlushAttempts = 2

// Run collects and ships samples until the context is canceled or the
// Source runs dry. It returns nil then, and an error only for
// unrecoverable configuration problems.
func (a *Agent) Run(ctx context.Context) error {
	switch {
	case a.Source == nil:
		return errors.New("monitor: agent has no source")
	case a.Sender.Addr == "":
		return errors.New("monitor: agent has no warehouse address")
	case a.Sender.AgentID == "":
		return errors.New("monitor: agent has no AgentID")
	case a.Interval <= 0:
		return errors.New("monitor: agent interval must be positive")
	}
	now := a.Now
	if now == nil {
		now = time.Now
	}
	defer a.Sender.Close()
	ticker := time.NewTicker(a.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		sample, err := a.Source.Collect(now())
		if err != nil {
			// Sources run dry when their trace ends; ship what is
			// queued and stop cleanly. Anything still unacked stays
			// counted as Pending.
			_ = a.Sender.Flush(ctx, agentFlushAttempts)
			return nil
		}
		a.Sender.Queue(sample)
		// A failed flush keeps the backlog queued for the next tick.
		_ = a.Sender.Flush(ctx, agentFlushAttempts)
	}
}
