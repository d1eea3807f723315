//! Outcome telemetry for both entry points into the pipeline.
//!
//! One table of outcomes — ok, invalid, sources_unavailable and
//! no_candidates — is driven through `Minaret::recommend` and through
//! `Assigner::assign`, each case on a fresh telemetry registry. A case
//! checks the one `result` label its run was counted under, the span
//! list of the run's trace, and, for `recommend`, that every phase that
//! ran left its `minaret_phase_*` series behind.

use std::sync::{Arc, OnceLock};

use minaret::prelude::*;
use minaret::scholarly::FaultSchedule;
use minaret_telemetry::{SnapshotValue, Telemetry};

struct Case {
    label: &'static str,
    /// Sources scripted permanently down.
    dead: &'static [SourceKind],
    /// Breaks each manuscript of the case.
    spoil: fn(&mut ManuscriptDetails),
    recommend_spans: &'static [&'static str],
    assign_spans: &'static [&'static str],
}

const CASES: [Case; 4] = [
    Case {
        label: "ok",
        dead: &[],
        spoil: |_| {},
        recommend_spans: &["extraction", "filtering", "ranking"],
        assign_spans: &["extract", "score", "greedy", "flow"],
    },
    Case {
        label: "invalid",
        dead: &[],
        spoil: |m| m.title.clear(),
        recommend_spans: &[],
        assign_spans: &["extract"],
    },
    Case {
        // Both interest-capable sources down: fewer than `min_sources`
        // answer the fan-out.
        label: "sources_unavailable",
        dead: &[SourceKind::GoogleScholar, SourceKind::Publons],
        spoil: |_| {},
        recommend_spans: &["extraction"],
        assign_spans: &["extract"],
    },
    Case {
        label: "no_candidates",
        dead: &[],
        spoil: |m| m.keywords = vec!["transcendental numerology".into()],
        recommend_spans: &["extraction"],
        assign_spans: &["extract"],
    },
];

fn world() -> &'static Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    WORLD.get_or_init(|| Arc::new(WorldGenerator::new(WorldConfig::sized(250)).generate()))
}

fn minaret_for(case: &Case, telemetry: &Telemetry) -> Minaret {
    let mut registry = SourceRegistry::new(RegistryConfig {
        max_retries: 1,
        ..Default::default()
    });
    for spec in SourceSpec::all_defaults() {
        let dead = case.dead.contains(&spec.kind);
        let mut source = SimulatedSource::new(spec, world().clone());
        if dead {
            source = source.with_fault(FaultSchedule::PermanentOutage);
        }
        registry.register(Arc::new(source));
    }
    Minaret::new(
        Arc::new(registry),
        Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    )
    .with_telemetry(telemetry.clone())
}

/// Two manuscripts keyed on real scholars' interests, spoiled by `case`.
fn manuscripts_for(case: &Case) -> Vec<ManuscriptDetails> {
    let world = world();
    world
        .scholars()
        .iter()
        .filter(|s| !world.papers_of(s.id).is_empty())
        .take(2)
        .map(|lead| {
            let mut m = ManuscriptDetails {
                title: format!("Outcome telemetry manuscript by {}", lead.full_name()),
                keywords: lead
                    .interests
                    .iter()
                    .take(3)
                    .map(|&t| world.ontology.label(t).to_string())
                    .collect(),
                authors: vec![AuthorInput::named(lead.full_name())],
                target_venue: world.venues()[0].name.clone(),
            };
            (case.spoil)(&mut m);
            m
        })
        .collect()
}

/// Every `result` label counted in `family`, with its count.
fn results(telemetry: &Telemetry, family: &str) -> Vec<(String, u64)> {
    telemetry
        .snapshot()
        .into_iter()
        .filter(|m| m.name == family)
        .map(|m| match (m.labels.as_slice(), m.value) {
            ([(key, label)], SnapshotValue::Counter(n)) if key == "result" => (label.clone(), n),
            other => panic!("{family}: unexpected series {other:?}"),
        })
        .collect()
}

/// Span names of the one trace recorded, which must be named `name`
/// and hold only top-level spans.
fn spans_of(telemetry: &Telemetry, name: &str) -> Vec<String> {
    let traces = telemetry.recent_traces();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].name, name);
    assert!(traces[0].spans.iter().all(|s| s.depth == 0));
    traces[0].spans.iter().map(|s| s.name.clone()).collect()
}

#[test]
fn recommend_counts_each_outcome_under_its_label_with_its_spans() {
    for case in &CASES {
        let telemetry = Telemetry::new();
        let result = minaret_for(case, &telemetry).recommend(&manuscripts_for(case)[0]);
        assert_eq!(result.is_ok(), case.label == "ok", "{}", case.label);
        let expected = [(case.label.to_string(), 1)];
        assert_eq!(results(&telemetry, "minaret_recommend_total"), expected);
        assert_eq!(spans_of(&telemetry, "recommend"), case.recommend_spans);
        let text = telemetry.encode_prometheus();
        for phase in case.recommend_spans {
            for series in [
                format!("minaret_phase_micros_count{{phase=\"{phase}\"}} 1"),
                format!("minaret_phase_candidates{{direction=\"in\",phase=\"{phase}\"}}"),
                format!("minaret_phase_candidates{{direction=\"out\",phase=\"{phase}\"}}"),
            ] {
                assert!(
                    text.contains(&series),
                    "{}: no {series}\n{text}",
                    case.label
                );
            }
        }
    }
}

#[test]
fn assign_counts_each_outcome_under_its_label_with_its_spans() {
    for case in &CASES {
        let telemetry = Telemetry::new();
        let assigner = Assigner::new(minaret_for(case, &Telemetry::disabled()))
            .with_telemetry(telemetry.clone());
        let result = assigner.assign(&manuscripts_for(case), &AssignmentSpec::new(1, 2));
        assert_eq!(result.is_ok(), case.label == "ok", "{}", case.label);
        let expected = [(case.label.to_string(), 1)];
        assert_eq!(results(&telemetry, "minaret_assign_total"), expected);
        assert_eq!(spans_of(&telemetry, "assign"), case.assign_spans);
    }
}
