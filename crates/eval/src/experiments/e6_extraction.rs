//! E6 — what on-the-fly extraction costs, and what the per-run cache
//! buys back, under web-scraping-scale latency and transient failures.

use std::time::Duration;

use minaret_scholarly::{BreakerConfig, RegistryConfig, ResilienceConfig, SourceKind};
use minaret_synth::WorldConfig;

use crate::harness::{EvalContext, ScenarioConfig};
use crate::table::TextTable;

/// Result of experiment E6.
#[derive(Debug)]
pub struct E6Result {
    /// Wall-clock of the cold run (empty caches).
    pub cold: Duration,
    /// Wall-clock of the warm run (same manuscript again).
    pub warm: Duration,
    /// Cache hit ratio after the warm run.
    pub hit_ratio: f64,
    /// Cache misses during the cold run: fetches that went to the
    /// inner sources and populated the caches.
    pub cold_misses: u64,
    /// Cache hits during the warm run.
    pub warm_hits: u64,
    /// Inner source fetches (misses plus failed fetch-throughs) during
    /// the warm run.
    pub warm_fetches: u64,
    /// Registry call counters after both runs.
    pub calls: u64,
    /// Retries absorbed (injected transient failures).
    pub retries: u64,
    /// Wall-clock of the cold run with Publons scripted permanently dead.
    pub degraded_cold: Duration,
    /// Wall-clock of the warm degraded run (cache hot, breaker open).
    pub degraded_warm: Duration,
    /// Calls the open breaker rejected across both degraded runs.
    pub short_circuited: u64,
    /// Rendered report.
    pub report: String,
}

/// Runs the cold/warm extraction comparison.
///
/// `latency_micros` is the simulated per-call source latency; real
/// scraping sits at 10⁵–10⁶ µs, unit tests pass 0–500.
pub fn run_e6(scholars: usize, latency_micros: u64, failure_rate: f64) -> E6Result {
    let ctx = EvalContext::build(ScenarioConfig {
        world: WorldConfig::sized(scholars),
        source_latency_micros: latency_micros,
        source_failure_rate: failure_rate,
        cached: true,
        ..Default::default()
    });
    let sub = ctx.submissions(1, 0xE6).pop().expect("submission");
    let m = ctx.manuscript_for(&sub);

    // (hits, misses, errors) summed over every source's cache.
    let cache_totals = || {
        ctx.caches.iter().fold((0u64, 0u64, 0u64), |(h, m, e), c| {
            let s = c.stats();
            (h + s.hits, m + s.misses, e + s.errors)
        })
    };
    let t0 = std::time::Instant::now();
    let first = ctx.minaret.recommend(&m);
    let cold = t0.elapsed();
    let after_cold = cache_totals();
    let t1 = std::time::Instant::now();
    let second = ctx.minaret.recommend(&m);
    let warm = t1.elapsed();
    assert!(
        first.is_ok() && second.is_ok(),
        "pipeline failed under injection"
    );

    let (hits, misses, errors) = cache_totals();
    let cold_misses = after_cold.1;
    let warm_hits = hits - after_cold.0;
    let warm_fetches = (misses + errors) - (after_cold.1 + after_cold.2);
    let hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let stats = ctx.registry.stats();

    // Same scenario, but Publons is scripted permanently dead and the
    // registry runs with a breaker: the cost of degraded-mode service.
    // No dice here — the scripted outage is the only fault, so the
    // degraded numbers are attributable to it alone.
    let dead_ctx = EvalContext::build(ScenarioConfig {
        world: WorldConfig::sized(scholars),
        source_latency_micros: latency_micros,
        source_failure_rate: 0.0,
        cached: true,
        registry: RegistryConfig {
            resilience: ResilienceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown_micros: 60_000_000,
                    probe_successes: 1,
                },
                ..ResilienceConfig::disabled()
            },
            ..Default::default()
        },
        dead_sources: vec![SourceKind::Publons],
        ..Default::default()
    });
    let dead_sub = dead_ctx.submissions(1, 0xE6).pop().expect("submission");
    let dm = dead_ctx.manuscript_for(&dead_sub);
    let t2 = std::time::Instant::now();
    let degraded_run = dead_ctx
        .minaret
        .recommend(&dm)
        .expect("five healthy sources still recommend");
    let degraded_cold = t2.elapsed();
    let t3 = std::time::Instant::now();
    dead_ctx.minaret.recommend(&dm).expect("warm degraded run");
    let degraded_warm = t3.elapsed();
    assert!(
        degraded_run.degraded
            && degraded_run
                .degraded_sources
                .contains(&"Publons".to_string()),
        "the dead source must be named: {:?}",
        degraded_run.degraded_sources
    );
    let dead_stats = dead_ctx.registry.stats();

    let mut table = TextTable::new(&["run", "wall clock"]);
    table.row(&[
        "cold (empty cache)".into(),
        format!("{:.1} ms", cold.as_secs_f64() * 1e3),
    ]);
    table.row(&[
        "warm (cached)".into(),
        format!("{:.1} ms", warm.as_secs_f64() * 1e3),
    ]);
    table.row(&[
        "degraded cold (Publons dead)".into(),
        format!("{:.1} ms", degraded_cold.as_secs_f64() * 1e3),
    ]);
    table.row(&[
        "degraded warm (breaker open)".into(),
        format!("{:.1} ms", degraded_warm.as_secs_f64() * 1e3),
    ]);
    let report = format!(
        "E6  on-the-fly extraction cost ({scholars} scholars, {latency_micros} µs/call, \
         {failure_rate} failure rate)\n{}\
         cache hit ratio {:.2}; cold misses {cold_misses}, warm hits {warm_hits}, \
         warm fetches {warm_fetches}\n\
         registry calls {}, retries {}, gave up {}\n\
         speedup warm/cold: {:.1}x\n\
         degraded runs: flagged degraded, missing {:?}; breaker short-circuited {} calls\n",
        table.render(),
        hit_ratio,
        stats.calls,
        stats.retries,
        stats.gave_up,
        if warm.as_secs_f64() > 0.0 {
            cold.as_secs_f64() / warm.as_secs_f64()
        } else {
            f64::INFINITY
        },
        degraded_run.degraded_sources,
        dead_stats.short_circuited,
    );
    E6Result {
        cold,
        warm,
        hit_ratio,
        cold_misses,
        warm_hits,
        warm_fetches,
        calls: stats.calls,
        retries: stats.retries,
        degraded_cold,
        degraded_warm,
        short_circuited: dead_stats.short_circuited,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_cache_makes_warm_runs_cheaper() {
        let r = run_e6(150, 200, 0.05);
        // Deterministic, not wall-clock: the warm run never reaches an
        // inner source, and it is served from what the cold run cached.
        assert_eq!(r.warm_fetches, 0, "{}", r.report);
        assert!(r.cold_misses > 0, "{}", r.report);
        assert!(r.warm_hits >= r.cold_misses, "{}", r.report);
        assert!(r.hit_ratio > 0.3, "hit ratio {}", r.hit_ratio);
        assert!(r.calls > 0);
    }

    #[test]
    fn e6_survives_failure_injection() {
        let r = run_e6(100, 0, 0.3);
        assert!(r.retries > 0, "expected retries under 30% failure rate");
    }

    #[test]
    fn e6_degraded_runs_short_circuit_the_dead_source() {
        let r = run_e6(120, 0, 0.0);
        assert!(r.short_circuited >= 1, "{r:?}");
        assert!(r.report.contains("Publons"), "{}", r.report);
    }
}
