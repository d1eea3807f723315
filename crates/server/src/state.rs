//! Shared application state.

use std::path::Path;
use std::sync::Arc;

use minaret_core::{EditorConfig, Minaret};
use minaret_ontology::Ontology;
use minaret_scholarly::{
    RegistryConfig, ResilienceConfig, SimulatedSource, SourceRegistry, SourceSpec,
};
use minaret_store::{Store, StoreConfig, StoreError};
use minaret_synth::{
    load_world_streamed, stream_snapshot_world, StreamingGenerator, World, WorldConfig,
    WorldGenerator,
};
use minaret_telemetry::Telemetry;

use crate::cache::ResultCache;

/// Default `/recommend` result-cache TTL for demo servers, in micros.
pub const DEFAULT_CACHE_TTL_MICROS: u64 = 30_000_000;
/// Default `/recommend` result-cache capacity for demo servers.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Everything the route handlers need.
pub struct AppState {
    /// The synthetic world behind the simulated sources.
    pub world: Arc<World>,
    /// The source registry.
    pub registry: Arc<SourceRegistry>,
    /// The topic ontology.
    pub ontology: Arc<Ontology>,
    /// The framework with the server's default editor configuration.
    pub minaret: Minaret,
    /// Process-wide metrics + traces, served at `/metrics` and
    /// `/traces/recent`. Enabled by [`AppState::demo`].
    pub telemetry: Telemetry,
    /// TTL'd cache of serialized `/recommend` responses, keyed by the
    /// (manuscript, editor config) fingerprint. `None` disables caching
    /// (the [`AppState::with_registry`] test path, so scripted-fault
    /// tests always exercise the live pipeline).
    pub result_cache: Option<Arc<ResultCache>>,
    /// The embedded store backing `--data-dir` mode: world snapshot and
    /// persisted source profiles. `None` in pure-RAM mode, where
    /// serving behaviour is byte-identical to a store-backed server
    /// over the same (scholars, seed).
    pub store: Option<Arc<Store>>,
}

impl AppState {
    /// Builds the default demo state: a generated world, the six default
    /// sources, the curated ontology, a default editor config, telemetry
    /// enabled throughout, and the default result cache.
    pub fn demo(scholars: usize, seed: u64) -> Arc<AppState> {
        Self::demo_with_telemetry(scholars, seed, Telemetry::new())
    }

    /// Like [`AppState::demo`], but with a caller-provided telemetry
    /// handle (pass [`Telemetry::disabled`] to opt out).
    pub fn demo_with_telemetry(scholars: usize, seed: u64, telemetry: Telemetry) -> Arc<AppState> {
        Self::demo_with_cache_ttl(scholars, seed, telemetry, DEFAULT_CACHE_TTL_MICROS)
    }

    /// Like [`AppState::demo_with_telemetry`], with an explicit result
    /// cache TTL in microseconds; `0` disables the cache entirely.
    pub fn demo_with_cache_ttl(
        scholars: usize,
        seed: u64,
        telemetry: Telemetry,
        cache_ttl_micros: u64,
    ) -> Arc<AppState> {
        Self::demo_with_data_dir(scholars, seed, telemetry, cache_ttl_micros, None)
            .expect("pure-RAM demo state cannot fail: no store I/O involved")
    }

    /// Like [`AppState::demo_with_cache_ttl`], optionally backed by an
    /// embedded store at `data_dir`.
    ///
    /// With a data directory, the world is loaded from the snapshot
    /// there when one exists for the same `(scholars, seed)` — skipping
    /// regeneration entirely — and snapshotted after generation
    /// otherwise; source profile caches also persist across restarts.
    /// With `None`, behaviour (and every recommendation byte) is
    /// identical to the historical pure-RAM path.
    pub fn demo_with_data_dir(
        scholars: usize,
        seed: u64,
        telemetry: Telemetry,
        cache_ttl_micros: u64,
        data_dir: Option<&Path>,
    ) -> Result<Arc<AppState>, StoreError> {
        let store = match data_dir {
            Some(dir) => Some(Arc::new(Store::open_with_telemetry(
                dir,
                StoreConfig::default(),
                telemetry.clone(),
            )?)),
            None => None,
        };
        let config = WorldConfig {
            seed,
            ..WorldConfig::sized(scholars)
        };
        let world = match &store {
            Some(store) => match load_snapshot(store, scholars, seed)? {
                // Serve the snapshot only when it matches what was
                // asked for; a stale snapshot (different size or seed)
                // is regenerated and overwritten.
                Some(world) => Arc::new(world),
                None => {
                    // Write-through streaming: chunks land in the store
                    // as they are generated (peak memory one community
                    // block + memtable), then the snapshot is loaded
                    // back for the resident serving world.
                    let chunk_writes = telemetry.counter("minaret_world_chunk_writes_total", &[]);
                    let chunk_bytes = telemetry.counter("minaret_world_chunk_bytes_total", &[]);
                    stream_snapshot_world(store, &StreamingGenerator::new(config), |p| {
                        chunk_writes.inc();
                        chunk_bytes.inc_by(p.bytes as u64);
                    })?;
                    let (world, _) = load_world_streamed(store)?
                        .expect("a just-written streamed snapshot must load");
                    Arc::new(world)
                }
            },
            None => Arc::new(WorldGenerator::new(config).generate()),
        };
        telemetry
            .gauge("minaret_world_scholars", &[])
            .set(world.scholars().len() as i64);
        // Servers run with the production resilience preset: deadlines,
        // backoff, and breakers on, so a misbehaving source degrades
        // results instead of stalling requests.
        let mut registry = SourceRegistry::with_telemetry(
            RegistryConfig {
                resilience: ResilienceConfig::standard(),
                ..Default::default()
            },
            telemetry.clone(),
        );
        for spec in SourceSpec::all_defaults() {
            let mut source = SimulatedSource::new(spec, world.clone());
            if let Some(store) = &store {
                source = source.with_persistence(store.clone());
            }
            registry.register(Arc::new(source));
        }
        let cache = (cache_ttl_micros > 0).then(|| {
            Arc::new(
                ResultCache::new(cache_ttl_micros, DEFAULT_CACHE_CAPACITY)
                    .with_telemetry(telemetry.clone()),
            )
        });
        let mut state = Self::with_registry_and_cache(world, Arc::new(registry), telemetry, cache);
        if let Some(store) = store {
            Arc::get_mut(&mut state)
                .expect("state Arc is unshared at construction")
                .store = Some(store);
        }
        Ok(state)
    }

    /// Builds state over a caller-assembled registry (tests inject
    /// scripted-fault sources this way) plus the curated ontology and a
    /// default editor configuration. No result cache: every request
    /// exercises the live pipeline.
    pub fn with_registry(
        world: Arc<World>,
        registry: Arc<SourceRegistry>,
        telemetry: Telemetry,
    ) -> Arc<AppState> {
        Self::with_registry_and_cache(world, registry, telemetry, None)
    }

    /// [`AppState::with_registry`] with an explicit result cache.
    pub fn with_registry_and_cache(
        world: Arc<World>,
        registry: Arc<SourceRegistry>,
        telemetry: Telemetry,
        result_cache: Option<Arc<ResultCache>>,
    ) -> Arc<AppState> {
        let ontology = Arc::new(minaret_ontology::seed::curated_cs_ontology());
        let minaret = Minaret::new(registry.clone(), ontology.clone(), EditorConfig::default())
            .with_telemetry(telemetry.clone());
        Arc::new(AppState {
            world,
            registry,
            ontology,
            minaret,
            telemetry,
            result_cache,
            store: None,
        })
    }

    /// Drops every cached `/recommend` response (the hook to call when
    /// the underlying world or source data changes). Returns how many
    /// entries were dropped; 0 when no cache is configured.
    pub fn invalidate_result_cache(&self) -> usize {
        self.result_cache
            .as_ref()
            .map(|c| c.invalidate_all())
            .unwrap_or(0)
    }
}

/// A matching world snapshot from `store`. A snapshot for a different
/// `(scholars, seed)` is stale and reported as absent; a store holding
/// only a retired v1 snapshot fails the boot.
fn load_snapshot(store: &Store, scholars: usize, seed: u64) -> Result<Option<World>, StoreError> {
    Ok(load_world_streamed(store)?
        .filter(|(_, meta)| meta.scholars as usize == scholars && meta.seed == seed)
        .map(|(world, _)| world))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_state_wires_everything() {
        let state = AppState::demo(100, 7);
        assert_eq!(state.registry.len(), 6);
        assert!(state.world.scholars().len() == 100);
        assert!(state.ontology.len() > 100);
        assert!(state.telemetry.is_enabled());
        assert!(state.result_cache.is_some());
    }

    #[test]
    fn demo_state_can_opt_out_of_telemetry() {
        let state = AppState::demo_with_telemetry(100, 7, Telemetry::disabled());
        assert!(!state.telemetry.is_enabled());
    }

    #[test]
    fn data_dir_state_snapshots_then_loads_the_same_world() {
        let dir = std::env::temp_dir().join(format!("minaret-state-dd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = AppState::demo_with_data_dir(80, 11, Telemetry::disabled(), 0, Some(&dir))
            .expect("fresh data dir");
        assert!(first.store.is_some());
        let scholars_first = first.world.scholars().to_vec();
        drop(first);

        // Second boot: the world comes from the snapshot, identically.
        let second = AppState::demo_with_data_dir(80, 11, Telemetry::disabled(), 0, Some(&dir))
            .expect("restart over snapshot");
        assert_eq!(second.world.scholars(), scholars_first.as_slice());

        // Different seed: the stale snapshot is regenerated, not served.
        let third = AppState::demo_with_data_dir(80, 12, Telemetry::disabled(), 0, Some(&dir))
            .expect("reseed over stale snapshot");
        assert_ne!(third.world.scholars(), scholars_first.as_slice());
        drop(second);
        drop(third);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn data_dir_boot_streams_a_chunked_snapshot_and_records_metrics() {
        use minaret_telemetry::SnapshotValue;
        let dir = std::env::temp_dir().join(format!("minaret-state-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let telemetry = Telemetry::new();
        let state = AppState::demo_with_data_dir(90, 5, telemetry.clone(), 0, Some(&dir))
            .expect("fresh data dir");
        let snapshot = telemetry.snapshot();
        let value = |name: &str| {
            snapshot
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value.clone())
        };
        assert!(
            matches!(
                value("minaret_world_scholars"),
                Some(SnapshotValue::Gauge(90))
            ),
            "world gauge: {:?}",
            value("minaret_world_scholars")
        );
        assert!(
            matches!(value("minaret_world_chunk_writes_total"), Some(SnapshotValue::Counter(n)) if n >= 1)
        );
        assert!(
            matches!(value("minaret_world_chunk_bytes_total"), Some(SnapshotValue::Counter(n)) if n > 0)
        );
        // The store now holds a chunked snapshot.
        let store = state.store.clone().expect("data-dir state has a store");
        assert!(load_world_streamed(&store).unwrap().is_some());
        drop(state);
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn v1_only_data_dir_fails_boot_descriptively() {
        let dir = std::env::temp_dir().join(format!("minaret-state-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir, StoreConfig::default()).unwrap();
            store.put(b"world/meta", b"v1 meta").unwrap();
            store.sync().unwrap();
        }
        let err = match AppState::demo_with_data_dir(80, 11, Telemetry::disabled(), 0, Some(&dir)) {
            Ok(_) => panic!("a v1-only data dir must not boot"),
            Err(e) => e.to_string(),
        };
        assert!(err.ends_with("migrate or regenerate"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn zero_ttl_disables_the_result_cache() {
        let state = AppState::demo_with_cache_ttl(100, 7, Telemetry::disabled(), 0);
        assert!(state.result_cache.is_none());
        assert_eq!(state.invalidate_result_cache(), 0);
    }
}
