//! Output checks on the server's replies, and the quality figures read
//! from them.

use std::collections::{HashMap, HashSet};

use minaret_core::RecommendationReport;
use minaret_json::Value;
use minaret_synth::{ground_truth_relevance, ScholarId, SubmissionSpec, World};

/// The parts of a `/recommend` reply the checks and metrics read.
#[derive(Debug, Clone)]
pub struct RecReply {
    pub names: Vec<String>,
    pub ranks: Vec<u64>,
    pub totals: Vec<f64>,
}

fn parse_json(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    minaret_json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))
}

/// A `/recommend` reply must be a 200 whose ranks run 1..n, whose
/// scores never increase, and which is not degraded.
pub fn check_recommend(status: u16, body: &[u8]) -> Result<RecReply, String> {
    if status != 200 {
        return Err(format!("/recommend answered {status}"));
    }
    let v = parse_json(body)?;
    if v.get("degraded").and_then(Value::as_bool) != Some(false) {
        return Err("/recommend reply is degraded or has no degraded flag".into());
    }
    let recs = v
        .get("recommendations")
        .and_then(Value::as_array)
        .ok_or("/recommend reply has no recommendations array")?;
    let mut reply = RecReply {
        names: Vec::new(),
        ranks: Vec::new(),
        totals: Vec::new(),
    };
    for (i, r) in recs.iter().enumerate() {
        let rank = r
            .get("rank")
            .and_then(Value::as_u64)
            .ok_or("rank missing")?;
        if rank != i as u64 + 1 {
            return Err(format!("rank {rank} at position {}", i + 1));
        }
        let total = r
            .get("total_score")
            .and_then(Value::as_f64)
            .ok_or("total_score missing")?;
        if reply.totals.last().is_some_and(|&prev| total > prev) {
            return Err(format!("score rises to {total} at rank {rank}"));
        }
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or("name missing")?;
        reply.names.push(name.to_string());
        reply.ranks.push(rank);
        reply.totals.push(total);
    }
    Ok(reply)
}

/// The reply must name the same reviewers, in the same ranks, with the
/// same `total_score` bits, as an in-process recommendation.
pub fn same_as_report(reply: &RecReply, report: &RecommendationReport) -> Result<(), String> {
    if reply.names.len() != report.recommendations.len() {
        return Err(format!(
            "server returned {} recommendations, in-process {}",
            reply.names.len(),
            report.recommendations.len()
        ));
    }
    for (i, rec) in report.recommendations.iter().enumerate() {
        if reply.names[i] != rec.name
            || reply.ranks[i] != rec.rank as u64
            || reply.totals[i].to_bits() != rec.total.to_bits()
        {
            return Err(format!(
                "rank {}: server ({}, {}, {}) != in-process ({}, {}, {})",
                i + 1,
                reply.names[i],
                reply.ranks[i],
                reply.totals[i],
                rec.name,
                rec.rank,
                rec.total
            ));
        }
    }
    Ok(())
}

/// The parts of an `/assign` reply the metrics read.
#[derive(Debug, Clone)]
pub struct AssignReply {
    pub total_score: f64,
    pub coverage_at_k: f64,
    pub refinement: f64,
    pub augmentations: u64,
    pub eligible_pairs: u64,
}

/// An `/assign` reply must be a 200 giving every paper exactly `k`
/// distinct reviewers, no reviewer more than `max_load` papers, and a
/// total no lower than the greedy seed's.
pub fn check_assign(
    status: u16,
    body: &[u8],
    papers: usize,
    k: usize,
    max_load: usize,
) -> Result<AssignReply, String> {
    if status != 200 {
        return Err(format!("/assign answered {status}"));
    }
    let v = parse_json(body)?;
    let list = v
        .get("papers")
        .and_then(Value::as_array)
        .ok_or("/assign reply has no papers array")?;
    if list.len() != papers {
        return Err(format!("{} papers assigned, {papers} sent", list.len()));
    }
    for (i, p) in list.iter().enumerate() {
        let reviewers = p
            .get("reviewers")
            .and_then(Value::as_array)
            .ok_or("paper without reviewers")?;
        if reviewers.len() != k {
            return Err(format!(
                "paper {i} has {} reviewers, not {k}",
                reviewers.len()
            ));
        }
        let distinct: HashSet<String> = reviewers.iter().map(Value::to_string).collect();
        if distinct.len() != k {
            return Err(format!("paper {i} lists a reviewer twice"));
        }
    }
    let loads = v
        .get("loads")
        .and_then(Value::as_array)
        .ok_or("/assign reply has no loads")?;
    let mut assigned = 0;
    for l in loads {
        let load = l
            .get("load")
            .and_then(Value::as_u64)
            .ok_or("load missing")? as usize;
        if load > max_load {
            return Err(format!(
                "a reviewer carries {load} papers, max_load {max_load}"
            ));
        }
        assigned += load;
    }
    if assigned != papers * k {
        return Err(format!("loads sum to {assigned}, not {}", papers * k));
    }
    let num = |key: &str| v.get(key).and_then(Value::as_f64);
    let total_score = num("total_score").ok_or("total_score missing")?;
    let greedy_total = num("greedy_total").ok_or("greedy_total missing")?;
    if total_score < greedy_total {
        return Err(format!(
            "total_score {total_score} below greedy_total {greedy_total}"
        ));
    }
    Ok(AssignReply {
        total_score,
        coverage_at_k: v
            .get("quality")
            .and_then(|q| q.get("coverage_at_k"))
            .and_then(Value::as_f64)
            .ok_or("coverage_at_k missing")?,
        refinement: num("refinement_improvement").unwrap_or(0.0),
        augmentations: v.get("augmentations").and_then(Value::as_u64).unwrap_or(0),
        eligible_pairs: v.get("eligible_pairs").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// The share of recommended reviewers, over every reply, whose
/// ground-truth relevance to the manuscript is positive: relevant and
/// free of conflicts of interest. It is the grading `/assign`'s
/// coverage@k applies, without the cut to the top 2k scholars, which
/// left about two hits per reply, too few for a figure steady across
/// seeds. A name the world does not know counts as a miss.
pub fn relevant_share<'a>(
    world: &World,
    replies: impl Iterator<Item = (&'a SubmissionSpec, &'a RecReply)>,
) -> f64 {
    let mut by_name: HashMap<String, ScholarId> = HashMap::new();
    for s in world.scholars() {
        by_name.entry(s.full_name()).or_insert(s.id);
    }
    let (mut hits, mut names) = (0usize, 0usize);
    for (spec, reply) in replies {
        for name in &reply.names {
            names += 1;
            if by_name
                .get(name)
                .is_some_and(|&id| ground_truth_relevance(world, spec, id) > 0.0)
            {
                hits += 1;
            }
        }
    }
    hits as f64 / names.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"recommendations":[
        {"rank":1,"name":"A B","total_score":0.9},
        {"rank":2,"name":"C D","total_score":0.7}],"degraded":false}"#;

    #[test]
    fn a_well_formed_recommend_reply_passes() {
        let r = check_recommend(200, GOOD.as_bytes()).unwrap();
        assert_eq!(r.ranks, vec![1, 2]);
    }

    #[test]
    fn tampered_recommend_replies_fail() {
        let rising = GOOD.replace("0.7", "0.95");
        let skipped = GOOD.replace("\"rank\":2", "\"rank\":3");
        let degraded = GOOD.replace("false", "true");
        for bad in [rising.as_str(), skipped.as_str(), degraded.as_str(), "{"] {
            assert!(check_recommend(200, bad.as_bytes()).is_err(), "{bad}");
        }
        assert!(check_recommend(503, GOOD.as_bytes()).is_err());
    }

    fn assign_reply(loads: &str, total: f64) -> String {
        format!(
            r#"{{"papers":[{{"title":"p","reviewers":[{{"name":"A"}},{{"name":"B"}}]}},
                {{"title":"q","reviewers":[{{"name":"A"}},{{"name":"C"}}]}}],
              "loads":[{loads}],"greedy_total":1.0,"total_score":{total},
              "quality":{{"coverage_at_k":0.5}}}}"#
        )
    }

    #[test]
    fn assign_checks_hold_and_catch_tampering() {
        let ok = assign_reply(r#"{"load":2},{"load":1},{"load":1}"#, 1.5);
        assert!(check_assign(200, ok.as_bytes(), 2, 2, 2).is_ok());
        let over = assign_reply(r#"{"load":3},{"load":1}"#, 1.5);
        assert!(check_assign(200, over.as_bytes(), 2, 2, 2).is_err());
        let below_greedy = assign_reply(r#"{"load":2},{"load":1},{"load":1}"#, 0.5);
        assert!(check_assign(200, below_greedy.as_bytes(), 2, 2, 2).is_err());
        let dup = ok.replace(r#"{"name":"C"}"#, r#"{"name":"A"}"#);
        assert!(check_assign(200, dup.as_bytes(), 2, 2, 2).is_err());
    }
}
