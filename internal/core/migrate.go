// Elastic topology at the engine level: node join, planned drain, and
// resume/abort of a pending migration, all delegating to
// internal/ingest's live migration over this engine's fabric and
// databases. Queries keep running throughout — they route through the
// placement holder, which flips only at epoch commit.

package core

import (
	"fmt"

	"mssg/internal/cluster"
	"mssg/internal/ingest"
)

// PlacementHolder returns the engine's elastic placement authority, or
// nil when the engine runs a static policy (Config.Placement unset).
func (e *Engine) PlacementHolder() *ingest.PlacementHolder { return e.cfg.Placement }

// placement returns the holder an elastic operation runs against. An
// operation that moves data passes its cfg: the backend is first checked
// for what a migration needs, before BeginMigration makes a pending
// record durable, and durable back-ends get durable migrations
// (destinations checkpoint their dedup-set, so a killed migration
// resumes without double-storing).
func (e *Engine) placement(cfg *ingest.MigrationConfig) (*ingest.PlacementHolder, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("core: engine closed")
	}
	if e.cfg.Placement == nil {
		return nil, fmt.Errorf("core: engine has no placement holder (set Config.Placement for elastic topology)")
	}
	if cfg != nil {
		if err := e.requireCaps("migration", true); err != nil {
			return nil, err
		}
		cfg.Durable = cfg.Durable || e.durable()
	}
	return e.cfg.Placement, nil
}

// Join adds node n to the cluster: the next epoch's placement includes
// n, and the minimal shard set HRW re-ranking assigns to n is streamed
// over before the epoch commits. n must be a fabric node (engines
// reserve spare slots via Config.Backends).
func (e *Engine) Join(n cluster.NodeID, cfg ingest.MigrationConfig) (ingest.MigrationStats, error) {
	return e.migrate(cfg, func(h *ingest.PlacementHolder) (ingest.Placement, error) { return h.JoinTarget(n) })
}

// Drain removes node n in a planned way: every shard whose new replica
// set no longer includes n is re-homed before the epoch commits, so the
// node can be shut down with no coverage loss.
func (e *Engine) Drain(n cluster.NodeID, cfg ingest.MigrationConfig) (ingest.MigrationStats, error) {
	return e.migrate(cfg, func(h *ingest.PlacementHolder) (ingest.Placement, error) { return h.DrainTarget(n) })
}

// migrate live-migrates the cluster to the placement target derives from
// the committed one.
func (e *Engine) migrate(cfg ingest.MigrationConfig, target func(*ingest.PlacementHolder) (ingest.Placement, error)) (ingest.MigrationStats, error) {
	h, err := e.placement(&cfg)
	if err != nil {
		return ingest.MigrationStats{}, err
	}
	t, err := target(h)
	if err != nil {
		return ingest.MigrationStats{}, err
	}
	return ingest.Migrate(e.fabric, e.dbs, h, t, cfg)
}

// ResumeMigration re-runs the migration recorded in the pending
// placement, if any. Durable back-ends skip already-applied windows via
// their checkpointed dedup-set.
func (e *Engine) ResumeMigration(cfg ingest.MigrationConfig) (stats ingest.MigrationStats, resumed bool, err error) {
	h, err := e.placement(&cfg)
	if err != nil {
		return ingest.MigrationStats{}, false, err
	}
	return ingest.ResumeMigration(e.fabric, e.dbs, h, cfg)
}

// AbortMigration abandons the pending migration: the committed epoch
// stays authoritative and the aborted target epoch is recorded in the
// quarantine log.
func (e *Engine) AbortMigration() error {
	h, err := e.placement(nil)
	if err != nil {
		return err
	}
	return h.AbortMigration()
}
