//! The traced run's in-process replay: the workload's inputs go through
//! each layer's public calls, with a span recorded around every call.
//! Counters the server exports are diffed over the run's timed phase.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minaret_assign::{Assigner, AssignmentSpec};
use minaret_core::{
    filter::filter_decisions, rank::score_candidate, rank::score_candidates, CandidateProfile,
    EditorConfig, ManuscriptDetails, Minaret,
};
use minaret_disambig::{AuthorQuery, IdentityResolver, ResolutionPolicy};
use minaret_http::Request;
use minaret_ontology::{normalize_label, KeywordExpander};
use minaret_scholarly::{
    merge_profiles, persist, RegistryConfig, ResilienceConfig, SimulatedSource, SourceProfile,
    SourceRegistry, SourceSpec,
};
use minaret_server::{
    assign_request_from_json, assignment_to_json, manuscript_from_json, report_to_json, AppState,
    ResultCache,
};
use minaret_store::{Store, StoreConfig};
use minaret_synth::{persist::load_world_streamed, WorldConfig, WorldGenerator};
use minaret_telemetry::Telemetry;

use crate::checks::AssignReply;
use crate::client::Conn;
use crate::load::{quantile, Phase};
use crate::prom::{histogram_diff, Scrape};
use crate::Kind;

/// Every per-layer metric a traced run prints, with its unit. A
/// metric of a layer the workload does not reach reads 0.
pub const LAYER_METRICS: [(&str, &str); 45] = [
    ("http.parse_us", "us"),
    ("http.queue_wait_p50_ms", "ms"),
    ("http.queue_wait_p99_ms", "ms"),
    ("http.dispatch_us", "us"),
    ("http.wakeups_per_req", "count"),
    ("json.decode_us", "us"),
    ("server.fingerprint_us", "us"),
    ("server.cache_get_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_insert_us", "us"),
    ("server.encode_ms", "ms"),
    ("telemetry.emit_ns_1t", "ns"),
    ("telemetry.emit_ns_nt", "ns"),
    ("telemetry.scrape_ms", "ms"),
    ("ontology.expand_us", "us"),
    ("disambig.resolve_ms", "ms"),
    ("scholarly.fanout_ms", "ms"),
    ("scholarly.profiles_per_req", "count"),
    ("scholarly.merge_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.rank_ms", "ms"),
    ("core.candidates_in", "count"),
    ("core.candidates_kept", "count"),
    ("core.recommend_ms", "ms"),
    ("core.replay_coverage", "ratio"),
    ("assign.extract_ms", "ms"),
    ("assign.score_ms", "ms"),
    ("assign.eligible_pairs", "count"),
    ("assign.solve_ms", "ms"),
    ("assign.augmentations", "count"),
    ("assign.refinement", "score"),
    ("synth.generate_ms", "ms"),
    ("scholarly.index_build_ms", "ms"),
    ("store.open_ms", "ms"),
    ("synth.snapshot_load_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.compact_ms", "ms"),
    ("store.wal_appends_per_req", "count"),
    ("store.flushes_per_req", "count"),
    ("store.compactions_per_req", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.cpu_share", "ratio"),
    ("trace.e2e_p50_ms", "ms"),
    ("trace.span_ns", "ns"),
];

/// The layers whose spans, summed, should account for one whole
/// `Minaret::recommend`.
const RECOMMEND_CHILDREN: [&str; 6] = [
    "ontology.expand",
    "disambig.resolve",
    "scholarly.fanout",
    "scholarly.merge",
    "core.filter",
    "core.rank",
];

/// Requests the `recommend_fresh` replay runs through every layer.
const FRESH_REPLAYS: usize = 24;
/// Store-backed requests the `cold_store` replay runs.
const COLD_REPLAYS: usize = 3;
/// Cache reads the `recommend_hot` replay runs, at most.
const HOT_REPLAYS: usize = 20_000;

/// What the replay needs from the run.
pub struct Ctx<'a> {
    pub kind: Kind,
    pub scholars: usize,
    pub world_seed: u64,
    pub state: &'a AppState,
    pub warm: &'a [ManuscriptDetails],
    pub bodies: &'a [Vec<u8>],
    pub warm_bodies: &'a [Vec<u8>],
    pub hot_picks: Vec<usize>,
    pub replayed: usize,
    pub spec: (usize, usize),
    pub assign_replies: &'a [AssignReply],
    pub before: &'a Scrape,
    pub after: &'a Scrape,
    pub completed: u64,
    pub phase: &'a Phase,
    pub e2e_p50_ms: f64,
    pub scrape_ms: f64,
    pub loadgen_cpu: Duration,
    pub server_cpu: Duration,
    pub scratch: &'a Path,
    pub pristine: &'a Path,
    pub spans_out: &'a Path,
}

#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder; spans are written out when the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the open span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn durations_ns(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median duration of the spans named `name`, divided by `unit_ns`.
    fn p50(&self, name: &str, unit_ns: f64) -> f64 {
        quantile(&self.durations_ns(name), 0.5) / unit_ns
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Writes one JSON line per span: name, start, end, parent, request
    /// and self time (duration minus the children's).
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i])
            )?;
        }
        out.flush()
    }
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// The union of a manuscript's expanded labels, normalized and sorted,
/// as the pipeline sends them to the sources.
fn labels(state: &AppState, keywords: &[String], rec: &mut Recorder) -> Vec<String> {
    let expander = KeywordExpander::new(&state.ontology, state.minaret.config().expansion);
    let (expanded, _unknown) = rec.span("ontology.expand", |_| expander.expand_all(keywords));
    let mut set: BTreeSet<String> = expanded.iter().map(|e| normalize_label(&e.label)).collect();
    set.extend(keywords.iter().map(|k| normalize_label(k)));
    set.into_iter().collect()
}

/// Fans `labels` out through `registry` and merges the hits; returns
/// the deduplicated profiles.
fn fanout_and_merge(
    registry: &SourceRegistry,
    labels: &[String],
    rec: &mut Recorder,
) -> Vec<Arc<SourceProfile>> {
    let report = rec.span("scholarly.fanout", |_| {
        registry.search_by_interests_report(labels)
    });
    let mut profiles: Vec<Arc<SourceProfile>> = report
        .by_label
        .into_iter()
        .flat_map(|(_, hits)| hits)
        .collect();
    profiles.sort_by(|a, b| (a.source, &a.key).cmp(&(b.source, &b.key)));
    profiles.dedup_by(|a, b| a.source == b.source && a.key == b.key);
    let kept = profiles.clone();
    rec.span("scholarly.merge", |_| merge_profiles(profiles));
    kept
}

fn resolve_authors(state: &AppState, m: &ManuscriptDetails, rec: &mut Recorder) {
    let resolver = IdentityResolver::new(&state.registry);
    for a in &m.authors {
        let query = AuthorQuery {
            name: a.name.clone(),
            affiliation: a.affiliation.clone(),
            country: a.country.clone(),
            context_keywords: m.keywords.clone(),
        };
        rec.span("disambig.resolve", |_| {
            resolver.resolve(query, &ResolutionPolicy::AutoTop1)
        });
    }
}

fn text(body: &[u8]) -> &str {
    std::str::from_utf8(body).expect("request bodies are built as UTF-8")
}

/// Decodes a `/recommend` body as the server does.
fn decode_recommend(state: &AppState, body: &[u8]) -> (ManuscriptDetails, EditorConfig) {
    let v = minaret_json::parse(text(body)).expect("replayed bodies are valid JSON");
    manuscript_from_json(&v, state.minaret.config()).expect("replayed bodies decode")
}

/// One `/recommend` request through every layer, then the whole
/// `Minaret::recommend` for comparison.
fn replay_recommend(
    state: &AppState,
    cache: &ResultCache,
    body: &[u8],
    rec: &mut Recorder,
    counts: &mut BTreeMap<&'static str, f64>,
) {
    let raw = Conn::encode("POST", "/recommend", body);
    rec.span("http.parse", |_| Request::parse(&raw).ok());
    let (m, config) = rec.span("json.decode", |_| decode_recommend(state, body));
    let key = rec.span("server.fingerprint", |_| {
        ResultCache::fingerprint(&m, &config)
    });
    rec.span("server.cache_get", |_| cache.get(key));
    let labels = labels(state, &m.keywords, rec);
    resolve_authors(state, &m, rec);
    let profiles = fanout_and_merge(&state.registry, &labels, rec);
    *counts.entry("profiles").or_default() += profiles.len() as f64;

    // Filter and rank, fed from a one-manuscript batch extraction.
    let minaret = &state.minaret;
    if let Ok(ext) = rec.span("core.extract_feed", |_| {
        minaret.extract_batch(std::slice::from_ref(&m))
    }) {
        let paper = &ext.papers[0];
        let candidates: Vec<CandidateProfile> = paper
            .matches
            .iter()
            .map(|c| CandidateProfile {
                merged: ext.pool[c.pool_index].clone(),
                matched_keywords: c.matched_keywords.clone(),
                keyword_score: c.keyword_score,
            })
            .collect();
        let decisions = rec.span("core.filter", |_| {
            filter_decisions(
                &candidates,
                &paper.author_records,
                &config,
                minaret.parallelism(),
            )
        });
        let kept: Vec<CandidateProfile> = candidates
            .into_iter()
            .zip(&decisions)
            .filter(|(_, d)| d.kept())
            .map(|(c, _)| c)
            .collect();
        *counts.entry("in").or_default() += decisions.len() as f64;
        *counts.entry("kept").or_default() += kept.len() as f64;
        rec.span("core.rank", |_| {
            let scores = score_candidates(
                &kept,
                &paper.expansion_sets,
                &m.target_venue,
                &config,
                minaret.parallelism(),
            );
            let mut order: Vec<(usize, f64)> =
                scores.iter().enumerate().map(|(i, s)| (i, s.1)).collect();
            order.sort_by(|a, b| {
                b.1.total_cmp(&a.1).then_with(|| {
                    kept[a.0]
                        .merged
                        .display_name
                        .cmp(&kept[b.0].merged.display_name)
                })
            });
            order.truncate(config.max_recommendations);
            order
        });
    }
    let report = rec.span("core.recommend", |_| minaret.recommend(&m));
    if let Ok(report) = report {
        let body = rec.span("server.encode", |_| {
            report_to_json(&report).to_string().into_bytes()
        });
        rec.span("server.cache_insert", |_| cache.insert(key, body));
    }
    *counts.entry("requests").or_default() += 1.0;
}

/// Decodes an `/assign` body as the server does.
fn decode_assign(
    state: &AppState,
    body: &[u8],
) -> (Vec<ManuscriptDetails>, AssignmentSpec, EditorConfig) {
    let v = minaret_json::parse(text(body)).expect("replayed bodies are valid JSON");
    assign_request_from_json(&v, state.minaret.config()).expect("replayed bodies decode")
}

/// One `/assign` batch through every layer, then the assigner itself,
/// whose own `greedy` and `flow` spans time the solve.
fn replay_assign(
    state: &AppState,
    body: &[u8],
    spec: (usize, usize),
    rec: &mut Recorder,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let raw = Conn::encode("POST", "/assign", body);
    rec.span("http.parse", |_| Request::parse(&raw).ok());
    let (ms, _, config) = rec.span("json.decode", |_| decode_assign(state, body));
    let spec = AssignmentSpec::new(spec.0, spec.1);
    let minaret = &state.minaret;
    let Ok(ext) = rec.span("assign.extract", |_| minaret.extract_batch(&ms)) else {
        return;
    };
    let mut union = BTreeSet::new();
    for m in &ms {
        union.extend(labels(state, &m.keywords, rec));
        resolve_authors(state, m, rec);
    }
    let union: Vec<String> = union.into_iter().collect();
    let profiles = fanout_and_merge(&state.registry, &union, rec);
    out.insert("scholarly.profiles_per_req", profiles.len() as f64);
    let eligible = rec.span("assign.score", |_| {
        let mut eligible = 0usize;
        for (i, paper) in ext.papers.iter().enumerate() {
            let mut matches: Vec<_> = paper.matches.iter().collect();
            let cap = spec.max_candidates_per_paper;
            if cap > 0 && matches.len() > cap {
                matches.sort_by(|a, b| {
                    b.keyword_score
                        .total_cmp(&a.keyword_score)
                        .then_with(|| a.pool_index.cmp(&b.pool_index))
                });
                matches.truncate(cap);
            }
            for c in matches {
                let merged = &ext.pool[c.pool_index];
                if minaret_core::filter::filter_candidate(
                    merged,
                    c.keyword_score,
                    &paper.author_records,
                    &config,
                )
                .kept()
                {
                    let b = score_candidate(
                        merged,
                        &paper.expansion_sets,
                        &ms[i].target_venue,
                        &config,
                    );
                    std::hint::black_box(b.total(&config.weights));
                    eligible += 1;
                }
            }
        }
        eligible
    });
    std::hint::black_box(eligible);
    let telemetry = Telemetry::new();
    let assigner = Assigner::new(
        Minaret::new(state.registry.clone(), state.ontology.clone(), config)
            .with_telemetry(telemetry.clone()),
    )
    .with_telemetry(telemetry.clone());
    let solved = rec.span("assign.assign", |_| assigner.assign(&ms, &spec));
    if let Ok(solved) = solved {
        // Greedy and flow are private to the assigner; its own spans
        // time them.
        let solve_us: u64 = telemetry
            .recent_traces()
            .iter()
            .filter(|t| t.name == "assign")
            .flat_map(|t| &t.spans)
            .filter(|s| s.name == "greedy" || s.name == "flow")
            .map(|s| s.duration_micros)
            .sum();
        out.insert("assign.solve_ms", solve_us as f64 / 1e3);
        rec.span("server.encode", |_| {
            assignment_to_json(&solved).to_string().into_bytes()
        });
    }
}

/// Wall nanoseconds per emission (one counter increment plus one
/// histogram observation, with the serving path's label sets) when
/// `threads` threads emit at once.
fn emit_ns(threads: usize) -> f64 {
    const N: u64 = 200_000;
    let telemetry = Telemetry::new();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let t = telemetry.clone();
            s.spawn(move || {
                for i in 0..N {
                    t.counter(
                        "minaret_http_requests_total",
                        &[("route", "/recommend"), ("status", "200")],
                    )
                    .inc();
                    t.histogram("minaret_http_request_micros", &[("route", "/recommend")])
                        .observe(i % 1024);
                }
            });
        }
    });
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Nanoseconds one recorded span costs the replay.
fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut rec = Recorder::new();
    let start = Instant::now();
    for _ in 0..N {
        rec.span("empty", |_| ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

fn per_req(ctx: &Ctx, series: &str) -> f64 {
    (ctx.after.value(series) - ctx.before.value(series)) / ctx.completed.max(1) as f64
}

/// Replays the workload's inputs and returns every per-layer metric.
pub fn replay(ctx: &Ctx) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- diffs of the server's own counters over the timed phase -----
    let queue = histogram_diff(
        &ctx.before.histogram("minaret_http_time_in_queue_micros"),
        &ctx.after.histogram("minaret_http_time_in_queue_micros"),
    );
    out.insert("http.queue_wait_p50_ms", queue.p50() / 1e3);
    out.insert("http.queue_wait_p99_ms", queue.p99() / 1e3);
    let dispatch = histogram_diff(
        &ctx.before.histogram("minaret_http_reactor_dispatch_micros"),
        &ctx.after.histogram("minaret_http_reactor_dispatch_micros"),
    );
    out.insert("http.dispatch_us", dispatch.mean());
    let requests = ctx.after.family_sum("minaret_http_requests_total", "")
        - ctx.before.family_sum("minaret_http_requests_total", "");
    out.insert(
        "http.wakeups_per_req",
        (ctx.after.value("minaret_http_reactor_wakeups_total")
            - ctx.before.value("minaret_http_reactor_wakeups_total"))
            / requests.max(1.0),
    );
    let hits = ctx.after.value("minaret_result_cache_hits_total")
        - ctx.before.value("minaret_result_cache_hits_total");
    let misses = ctx.after.value("minaret_result_cache_misses_total")
        - ctx.before.value("minaret_result_cache_misses_total");
    out.insert(
        "server.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.insert(
        "store.wal_appends_per_req",
        per_req(ctx, "store_wal_appends"),
    );
    out.insert("store.flushes_per_req", per_req(ctx, "store_flushes"));
    out.insert(
        "store.compactions_per_req",
        per_req(ctx, "store_compactions"),
    );

    // ---- the generator's own validity ---------------------------------
    let mut late: Vec<f64> = ctx.phase.late_us.iter().map(|&u| u as f64 / 1e3).collect();
    late.sort_by(f64::total_cmp);
    out.insert("loadgen.late_p99_ms", quantile(&late, 0.99));
    let cpu = ctx.loadgen_cpu.as_secs_f64() + ctx.server_cpu.as_secs_f64();
    out.insert(
        "loadgen.cpu_share",
        if cpu > 0.0 {
            ctx.loadgen_cpu.as_secs_f64() / cpu
        } else {
            0.0
        },
    );
    out.insert("trace.e2e_p50_ms", ctx.e2e_p50_ms);
    out.insert("trace.span_ns", span_cost_ns());
    out.insert("telemetry.emit_ns_1t", emit_ns(1));
    out.insert("telemetry.emit_ns_nt", emit_ns(crate::nproc()));

    // ---- the in-process replay ----------------------------------------
    let mut rec = Recorder::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    if ctx.kind != Kind::Cold {
        let config = WorldConfig {
            seed: ctx.world_seed,
            ..WorldConfig::sized(ctx.scholars)
        };
        let world =
            Arc::new(rec.span("synth.generate", |_| WorldGenerator::new(config).generate()));
        rec.span("scholarly.index_build", |_| {
            SourceSpec::all_defaults()
                .into_iter()
                .map(|spec| SimulatedSource::new(spec, world.clone()))
                .collect::<Vec<_>>()
        });
    }
    let cache = ResultCache::new(3_600_000_000, 1024);
    match ctx.kind {
        Kind::Fresh => {
            // The same disjoint warm-up stream the server saw.
            for m in ctx.warm {
                let _ = ctx.state.minaret.recommend(m);
            }
            for (k, body) in ctx
                .bodies
                .iter()
                .take(ctx.replayed.min(FRESH_REPLAYS))
                .enumerate()
            {
                // An untimed first pass fills the profile memo for this
                // manuscript, so every span below, the layers and the
                // whole alike, times the same warm state.
                let _ = ctx.state.minaret.recommend(&decode_recommend(ctx.state, body).0);
                rec.request = k as u64;
                rec.span("request", |rec| {
                    replay_recommend(ctx.state, &cache, body, rec, &mut counts)
                });
            }
        }
        Kind::Hot => {
            // A cache primed with the pool, as the server's is.
            for m in ctx.warm {
                if let Ok(report) = ctx.state.minaret.recommend(m) {
                    let key = ResultCache::fingerprint(m, ctx.state.minaret.config());
                    cache.insert(key, report_to_json(&report).to_string().into_bytes());
                }
            }
            for (k, &i) in ctx.hot_picks.iter().take(HOT_REPLAYS).enumerate() {
                rec.request = k as u64;
                let body = &ctx.warm_bodies[i];
                rec.span("request", |rec| {
                    let raw = Conn::encode("POST", "/recommend", body);
                    rec.span("http.parse", |_| Request::parse(&raw).ok());
                    let (m, config) =
                        rec.span("json.decode", |_| decode_recommend(ctx.state, body));
                    let key = rec.span("server.fingerprint", |_| {
                        ResultCache::fingerprint(&m, &config)
                    });
                    rec.span("server.cache_get", |_| cache.get(key));
                });
            }
        }
        Kind::Assign => {
            if let Some(body) = ctx.bodies.first() {
                // Untimed first pass, as on `recommend_fresh`: the
                // extraction, the fan-out and the assigner below all
                // time the same warm profile memo.
                let _ = ctx.state.minaret.extract_batch(&decode_assign(ctx.state, body).0);
                rec.span("request", |rec| {
                    replay_assign(ctx.state, body, ctx.spec, rec, &mut out)
                });
            }
            // Solver outcomes as the server reported them, batch by batch.
            let replies = ctx.assign_replies;
            let n = replies.len().max(1) as f64;
            out.insert(
                "assign.eligible_pairs",
                replies.iter().map(|r| r.eligible_pairs as f64).sum::<f64>() / n,
            );
            out.insert(
                "assign.augmentations",
                replies.iter().map(|r| r.augmentations as f64).sum::<f64>() / n,
            );
            out.insert(
                "assign.refinement",
                replies.iter().map(|r| r.refinement).fold(0.0, f64::max),
            );
        }
        Kind::Cold => replay_cold(ctx, &mut rec, &mut out),
    }

    // ---- per-layer figures from the spans -----------------------------
    for (metric, span, unit) in [
        ("http.parse_us", "http.parse", US),
        ("json.decode_us", "json.decode", US),
        ("server.fingerprint_us", "server.fingerprint", US),
        ("server.cache_get_us", "server.cache_get", US),
        ("server.cache_insert_us", "server.cache_insert", US),
        ("server.encode_ms", "server.encode", MS),
        ("ontology.expand_us", "ontology.expand", US),
        ("disambig.resolve_ms", "disambig.resolve", MS),
        ("scholarly.fanout_ms", "scholarly.fanout", MS),
        ("scholarly.merge_ms", "scholarly.merge", MS),
        ("core.filter_ms", "core.filter", MS),
        ("core.rank_ms", "core.rank", MS),
        ("core.recommend_ms", "core.recommend", MS),
        ("assign.extract_ms", "assign.extract", MS),
        ("assign.score_ms", "assign.score", MS),
        ("synth.generate_ms", "synth.generate", MS),
        ("scholarly.index_build_ms", "scholarly.index_build", MS),
        ("store.open_ms", "store.open", MS),
        ("synth.snapshot_load_ms", "synth.snapshot_load", MS),
        ("store.get_us", "store.get", US),
        ("store.put_us", "store.put", US),
        ("store.compact_ms", "store.compact", MS),
    ] {
        out.insert(metric, rec.p50(span, unit));
    }
    let requests = counts.get("requests").copied().unwrap_or(0.0).max(1.0);
    if ctx.kind == Kind::Fresh {
        out.insert(
            "scholarly.profiles_per_req",
            counts.get("profiles").copied().unwrap_or(0.0) / requests,
        );
        out.insert(
            "core.candidates_in",
            counts.get("in").copied().unwrap_or(0.0) / requests,
        );
        out.insert(
            "core.candidates_kept",
            counts.get("kept").copied().unwrap_or(0.0) / requests,
        );
        let children: f64 = RECOMMEND_CHILDREN.iter().map(|s| rec.total_ns(s)).sum();
        let whole = rec.total_ns("core.recommend");
        out.insert(
            "core.replay_coverage",
            if whole > 0.0 { children / whole } else { 0.0 },
        );
    }
    out.insert("telemetry.scrape_ms", ctx.scrape_ms);
    if let Err(e) = rec.write(ctx.spans_out) {
        eprintln!(
            "perfbench: cannot write spans to {}: {e}",
            ctx.spans_out.display()
        );
    }
    out
}

/// `cold_store`: open a pristine copy of the snapshot, load the world
/// from it, serve a few of the run's manuscripts through store-backed
/// sources (first touches write profiles through the WAL), then replay
/// the touched profile keys through `Store::put`, `get` and `compact`.
fn replay_cold(ctx: &Ctx, rec: &mut Recorder, out: &mut BTreeMap<&'static str, f64>) {
    let dir = ctx.scratch.join("replay");
    if crate::copy_dir(ctx.pristine, &dir).is_err() {
        return;
    }
    let Ok(store) = rec.span("store.open", |_| Store::open(&dir, StoreConfig::default())) else {
        return;
    };
    let store = Arc::new(store);
    let Ok(Some((world, _))) = rec.span("synth.snapshot_load", |_| load_world_streamed(&store))
    else {
        return;
    };
    let world = Arc::new(world);
    let mut registry = SourceRegistry::new(RegistryConfig {
        resilience: ResilienceConfig::standard(),
        ..Default::default()
    });
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(
            SimulatedSource::new(spec, world.clone()).with_persistence(store.clone()),
        ));
    }
    let mut touched: Vec<Arc<SourceProfile>> = Vec::new();
    let mut profiles = 0usize;
    for (k, body) in ctx
        .bodies
        .iter()
        .take(COLD_REPLAYS.min(ctx.replayed.max(1)))
        .enumerate()
    {
        rec.request = k as u64;
        rec.span("request", |rec| {
            let raw = Conn::encode("POST", "/recommend", body);
            rec.span("http.parse", |_| Request::parse(&raw).ok());
            let (m, _) = rec.span("json.decode", |_| decode_recommend(ctx.state, body));
            let labels = labels(ctx.state, &m.keywords, rec);
            let p = fanout_and_merge(&registry, &labels, rec);
            profiles += p.len();
            touched.extend(p);
        });
    }
    out.insert(
        "scholarly.profiles_per_req",
        profiles as f64 / COLD_REPLAYS.min(ctx.replayed.max(1)) as f64,
    );
    let entries: Vec<(Vec<u8>, Vec<u8>)> = touched
        .iter()
        .map(|p| {
            (
                persist::profile_key(p.source, p.truth),
                persist::encode_profile(p),
            )
        })
        .collect();
    for (key, value) in &entries {
        let _ = rec.span("store.put", |_| store.put(key, value));
    }
    for (key, _) in &entries {
        let _ = rec.span("store.get", |_| store.get(key));
    }
    let _ = rec.span("store.compact", |_| store.compact());
}
