package experiment

import (
	"strings"
	"testing"
	"time"
)

// TestRunCounters checks what Result.Counters adds on top of the
// metrics snapshot, on both paths: the radio link-cache totals (the
// single medium sequentially, the sum over tile mediums on the engine
// path) and, on the engine path, the engine_*_total counters, which
// must equal Engine.Stats exactly. Nodes walk a random waypoint so the
// invalidation counter moves too.
func TestRunCounters(t *testing.T) {
	base := Setup{
		Name: "counters", Rows: 4, Cols: 4, ImagePackets: 16, Seed: 5,
		Protocol: ProtocolGossip, Limit: 2 * time.Hour,
		Mobility: waypoint(1, 3, 5*time.Second), MobilityEvery: 2 * time.Second,
	}
	linkCache := func(t *testing.T, res *Result, hits, misses, inv uint64) {
		t.Helper()
		c := res.Counters()
		for name, want := range map[string]uint64{
			"radio_link_cache_hits_total":          hits,
			"radio_link_cache_misses_total":        misses,
			"radio_link_cache_invalidations_total": inv,
		} {
			if got := c.Get(name); got != int64(want) {
				t.Errorf("counter %s = %d, want %d", name, got, want)
			}
		}
		if hits == 0 || misses == 0 || inv == 0 {
			t.Errorf("link cache hits=%d misses=%d invalidations=%d: a counter the test pins never moved", hits, misses, inv)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		res, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != nil || res.Medium == nil {
			t.Fatal("run did not take the sequential path")
		}
		hits, misses, inv, _ := res.Medium.CacheStats()
		linkCache(t, res, hits, misses, inv)
		for name := range res.Counters().Snapshot() {
			if strings.HasPrefix(name, "engine_") {
				t.Errorf("sequential run exports engine counter %s", name)
			}
		}
	})

	t.Run("tiled", func(t *testing.T) {
		s := base
		s.TileRows, s.TileCols, s.Shards, s.Workers = 2, 2, 2, 1
		s.Repartition, s.RepartitionEvery, s.RepartitionThreshold = true, 4, 1.1
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine == nil {
			t.Fatal("run did not take the engine path")
		}
		var hits, misses, inv uint64
		for _, sh := range res.Engine.Shards() {
			h, m, i, _ := sh.Medium.CacheStats()
			hits, misses, inv = hits+h, misses+m, inv+i
		}
		linkCache(t, res, hits, misses, inv)

		c := res.Counters()
		st := res.Engine.Stats()
		for name, want := range map[string]int64{
			"engine_windows_total":         st.Windows,
			"engine_ghosts_exported_total": st.GhostsExported,
			"engine_ghosts_offered_total":  st.GhostsOffered,
			"engine_tile_migrations_total": st.Migrations,
			"engine_repartitions_total":    st.Repartitions,
		} {
			if got := c.Get(name); got != want {
				t.Errorf("counter %s = %d, want %d", name, got, want)
			}
			if want == 0 {
				t.Errorf("engine stat behind %s is zero; the comparison is vacuous", name)
			}
		}
	})
}
