package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

// ErrNoLiveReplica is the non-retryable flavour of ErrPartialCoverage:
// every replica of some required shard is unreachable, so no amount of
// failing over will complete the query. errors.Is(err,
// ErrPartialCoverage) still matches; FailoverBFS stops retrying when it
// sees this and either surfaces the error or (AllowPartial) the query
// already degraded instead of failing.
var ErrNoLiveReplica = fmt.Errorf("%w: every replica of a required shard is unreachable", ErrPartialCoverage)

// FailoverStats records what it took to answer a query on a degraded
// cluster.
type FailoverStats struct {
	// Retries is the number of failed attempts before the one that
	// produced the result.
	Retries int
	// ReplicaReads is the winning attempt's count of fringe vertices
	// served by non-primary replicas.
	ReplicaReads int64
	// DegradedLevels sums the BFS levels completed by failed attempts —
	// work thrown away because a back-end died mid-search.
	DegradedLevels int32
	// Suspected lists the nodes excluded by error-driven suspicion,
	// ascending (nodes the health view already excluded are not listed).
	Suspected []cluster.NodeID
}

// FailoverOptions tunes FailoverBFS / FailoverKHop. The zero value
// selects usable defaults.
type FailoverOptions struct {
	// Health is the liveness oracle consulted before every attempt. Nil
	// derives one from the fabric when it implements
	// cluster.HealthReporter (the reliable fabric does); a fabric without
	// failure detection starts from all-alive and relies on error-driven
	// suspicion alone.
	Health cluster.HealthView
	// MaxRetries bounds the retry loop: a query runs at most
	// 1+MaxRetries attempts. 0 means 3; negative means no retries.
	MaxRetries int
	// BackoffInitial is the sleep before the first retry, doubling per
	// retry up to BackoffMax — long enough for the failure detector to
	// declare the dead peer, short enough to stay interactive. Defaults:
	// 50ms and 1s.
	BackoffInitial time.Duration
	BackoffMax     time.Duration
	// BackoffJitter spreads each retry sleep uniformly over
	// [d·(1−j), d·(1+j)), so the queries that a node's crash failed
	// together do not retry in lockstep against the recovering cluster.
	// 0 means the default 0.5; negative disables jitter; values above 1
	// are clamped to 1.
	BackoffJitter float64
	// AttemptTimeout bounds each attempt (0: only ctx bounds them).
	AttemptTimeout time.Duration
}

func (o FailoverOptions) withDefaults() FailoverOptions {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffInitial <= 0 {
		o.BackoffInitial = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	switch {
	case o.BackoffJitter == 0:
		o.BackoffJitter = 0.5
	case o.BackoffJitter < 0:
		o.BackoffJitter = 0
	case o.BackoffJitter > 1:
		o.BackoffJitter = 1
	}
	return o
}

// jitterBackoff returns d perturbed uniformly into [d·(1−j), d·(1+j)).
// j <= 0 returns d unchanged.
func jitterBackoff(d time.Duration, j float64) time.Duration {
	if j <= 0 || d <= 0 {
		return d
	}
	f := 1 + j*(2*rand.Float64()-1)
	return time.Duration(float64(d) * f)
}

func (o FailoverOptions) healthFor(f cluster.Fabric) cluster.HealthView {
	if o.Health != nil {
		return o.Health
	}
	if hr, ok := f.(cluster.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

// activeSet is the nodes an attempt will run on: health-view survivors,
// minus error-driven suspects, intersected with an optional caller
// restriction. Returns nil (meaning "none") when nothing survives.
func activeSet(f cluster.Fabric, h cluster.HealthView, base []cluster.NodeID, suspects map[cluster.NodeID]bool) []cluster.NodeID {
	inBase := func(n cluster.NodeID) bool {
		if base == nil {
			return true
		}
		for _, b := range base {
			if b == n {
				return true
			}
		}
		return false
	}
	var out []cluster.NodeID
	for _, n := range cluster.LiveNodes(h, f.Nodes()) {
		if !suspects[n] && inBase(n) {
			out = append(out, n)
		}
	}
	return out
}

// retryable reports whether err can plausibly be cured by excluding the
// peers it names and rerunning on the survivors. ErrNoLiveReplica is
// terminal (the data is gone, not just a node), as is cancellation.
func retryable(err error) bool {
	if errors.Is(err, ErrNoLiveReplica) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, ErrPartialCoverage) ||
		errors.Is(err, cluster.ErrNodeDown) ||
		errors.Is(err, cluster.ErrTimeout) ||
		len(cluster.DownNodes(err)) > 0
}

// failoverLoop is the retry engine FailoverBFS and FailoverKHop share:
// attempt runs one try on the given active set and returns
// (levelsCompleted, err).
func failoverLoop(ctx context.Context, f cluster.Fabric, base []cluster.NodeID, opt FailoverOptions,
	attempt func(ctx context.Context, active []cluster.NodeID) (int32, error)) (*FailoverStats, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	health := opt.healthFor(f)
	stats := &FailoverStats{}
	suspects := make(map[cluster.NodeID]bool)
	backoff := opt.BackoffInitial
	// sleep waits one (jittered) backoff step before the next attempt and
	// doubles the step up to the cap; it returns early on cancellation.
	sleep := func() error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jitterBackoff(backoff, opt.BackoffJitter)):
		}
		if backoff *= 2; backoff > opt.BackoffMax {
			backoff = opt.BackoffMax
		}
		return nil
	}
	for try := 0; ; try++ {
		active := activeSet(f, health, base, suspects)
		if len(active) == 0 {
			// An empty view right after a crash is often a conviction
			// flap: the dead node's stale suspicions (or observers busy
			// absorbing the failure) briefly convict healthy peers, and
			// the majority vote heals within a heartbeat budget. Only a
			// view that stays empty through the retry budget is terminal.
			if ctx.Err() != nil || try >= opt.MaxRetries {
				return stats, fmt.Errorf("query: no live back-ends remain: %w", ErrNoLiveReplica)
			}
			stats.Retries++
			qm().foRetries.Inc()
			obs.DefaultTracer().Emit("query.failover.retry", map[string]string{
				"attempt": strconv.Itoa(try + 1),
				"error":   "no live back-ends in view",
			})
			if err := sleep(); err != nil {
				return stats, err
			}
			continue
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if opt.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, opt.AttemptTimeout)
		}
		levels, err := attempt(actx, active)
		cancel()
		if err == nil {
			return stats, nil
		}
		if ctx.Err() != nil || !retryable(err) || try >= opt.MaxRetries {
			return stats, err
		}
		for _, n := range cluster.DownNodes(err) {
			if !suspects[n] {
				suspects[n] = true
				stats.Suspected = append(stats.Suspected, n)
			}
		}
		stats.Retries++
		stats.DegradedLevels += levels
		qm().foRetries.Inc()
		obs.DefaultTracer().Emit("query.failover.retry", map[string]string{
			"attempt": strconv.Itoa(try + 1),
			"error":   err.Error(),
		})
		// The sleep gives the heartbeat detector time to convict a peer
		// the error did not name explicitly.
		if err := sleep(); err != nil {
			return stats, err
		}
	}
}

// FailoverBFS answers a BFS on a cluster that may lose back-ends
// mid-query: each attempt runs on the currently live nodes (health view
// plus error-driven suspicion), fringe routing reads dead primaries'
// shards from their replicas (cfg.ReplicasOf), and a failed attempt is
// retried with capped exponential backoff against the shrunken roster.
// The result carries FailoverStats. With all replicas of a needed shard
// dead the query fails with ErrNoLiveReplica (or degrades, when
// cfg.AllowPartial is set, to a Coverage < 1 result).
func FailoverBFS(ctx context.Context, f cluster.Fabric, dbs []graphdb.Graph, cfg BFSConfig, opt FailoverOptions) (BFSResult, error) {
	var res BFSResult
	stats, err := failoverLoop(ctx, f, cfg.ActiveNodes, opt, func(actx context.Context, active []cluster.NodeID) (int32, error) {
		acfg := cfg
		acfg.ActiveNodes = active
		var aerr error
		res, aerr = ParallelBFS(actx, f, dbs, acfg)
		return res.Levels, aerr
	})
	stats.ReplicaReads = res.ReplicaReads
	res.Failover = stats
	return res, err
}

// FailoverKHop is FailoverBFS for the k-hop neighbourhood count.
func FailoverKHop(ctx context.Context, f cluster.Fabric, dbs []graphdb.Graph, cfg KHopConfig, opt FailoverOptions) (KHopResult, error) {
	var res KHopResult
	stats, err := failoverLoop(ctx, f, cfg.ActiveNodes, opt, func(actx context.Context, active []cluster.NodeID) (int32, error) {
		acfg := cfg
		acfg.ActiveNodes = active
		var aerr error
		res, aerr = ParallelKHop(actx, f, dbs, acfg)
		return int32(len(res.PerLevel)), aerr
	})
	stats.ReplicaReads = res.ReplicaReads
	res.Failover = stats
	return res, err
}
