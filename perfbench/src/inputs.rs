//! Workload inputs: seeded manuscripts over the server's world, and
//! the request bodies the server receives.

use minaret_assign::manuscript_from_submission;
use minaret_core::ManuscriptDetails;
use minaret_json::Value;
use minaret_synth::{SubmissionGenerator, SubmissionSpec, World};

/// `n` manuscripts drawn by `SubmissionGenerator` from `seed`, with
/// the submissions they came from (their ground truth). The generator
/// may pick the same lead author twice, so each title gets the stream
/// name and its index: every manuscript is distinct, and distinct
/// streams never share a manuscript.
pub fn manuscripts(
    world: &World,
    seed: u64,
    stream: &str,
    n: usize,
) -> (Vec<SubmissionSpec>, Vec<ManuscriptDetails>) {
    let subs = SubmissionGenerator::new(world, seed).generate_many(n);
    let ms = subs
        .iter()
        .enumerate()
        .map(|(i, sub)| {
            let mut m = manuscript_from_submission(world, sub);
            m.title = format!("{} [{stream} {i}]", m.title);
            m
        })
        .collect();
    (subs, ms)
}

fn manuscript_json(m: &ManuscriptDetails) -> Value {
    let authors: Vec<Value> = m
        .authors
        .iter()
        .map(|a| {
            let mut v = Value::object().set("name", a.name.as_str());
            if let Some(aff) = &a.affiliation {
                v = v.set("affiliation", aff.as_str());
            }
            if let Some(c) = &a.country {
                v = v.set("country", c.as_str());
            }
            v
        })
        .collect();
    Value::object()
        .set("title", m.title.as_str())
        .set(
            "keywords",
            m.keywords
                .iter()
                .map(|k| Value::from(k.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("authors", authors)
        .set("target_venue", m.target_venue.as_str())
}

/// The `POST /recommend` body for one manuscript.
pub fn recommend_body(m: &ManuscriptDetails) -> Vec<u8> {
    manuscript_json(m).to_string().into_bytes()
}

/// The `POST /assign` body for one batch.
pub fn assign_body(batch: &[ManuscriptDetails], k: usize, max_load: usize) -> Vec<u8> {
    Value::object()
        .set(
            "manuscripts",
            batch.iter().map(manuscript_json).collect::<Vec<_>>(),
        )
        .set(
            "spec",
            Value::object()
                .set("reviewers_per_paper", k)
                .set("max_load", max_load),
        )
        .to_string()
        .into_bytes()
}

/// A small deterministic generator (SplitMix64) for request picks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Picks from a pool of items with Zipf skew (exponent 1): item `i`
/// is chosen with probability proportional to `1 / (i + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(pool: usize) -> Zipf {
        let total: f64 = (0..pool).map(|i| 1.0 / (i + 1) as f64).sum();
        let mut acc = 0.0;
        let cdf = (0..pool)
            .map(|i| {
                acc += 1.0 / (i + 1) as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The item request `k` of the stream seeded with `seed` asks for.
    pub fn pick(&self, seed: u64, k: u64) -> usize {
        let u = Rng::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407)).unit();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}
