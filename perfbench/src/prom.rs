//! Reading the server's `/metrics` text and diffing two scrapes.

use std::collections::HashMap;

use minaret_telemetry::HistogramSnapshot;

/// One scrape: every sample line, keyed by `name{labels}` as printed.
#[derive(Debug, Default, Clone)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut map = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Scrape(map)
    }

    /// A counter's value (0 when absent).
    pub fn value(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// The sum over every series of a family whose labels contain
    /// `label` (e.g. `route="/recommend"`), or over all when empty.
    pub fn family_sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                let (n, labels) = k.split_once('{').unwrap_or((k.as_str(), ""));
                n == name && labels.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// An unlabelled histogram, rebuilt as the telemetry crate's own
    /// snapshot type. The encoder stops at the first bucket holding
    /// every observation, so missing upper buckets hold the count.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let count = self.value(&format!("{name}_count")) as u64;
        let sum = self.value(&format!("{name}_sum")) as u64;
        let mut buckets = Vec::with_capacity(42);
        let mut below = 0u64;
        for i in 0..41 {
            let cum = self
                .0
                .get(&format!("{name}_bucket{{le=\"{}\"}}", 1u64 << i))
                .map_or(count, |&v| v as u64);
            buckets.push(cum.saturating_sub(below));
            below = cum;
        }
        buckets.push(count.saturating_sub(below));
        HistogramSnapshot {
            count,
            sum,
            buckets,
        }
    }
}

/// The observations a histogram gained between two scrapes.
pub fn histogram_diff(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_round_trips_through_the_exposition_text() {
        let t = minaret_telemetry::Telemetry::new();
        let h = t.histogram("q_micros", &[]);
        for v in [3, 5, 90, 700, 700, 5000] {
            h.observe(v);
        }
        t.counter("c_total", &[("route", "/x")]).inc_by(4);
        let scrape = Scrape::parse(&t.encode_prometheus());
        let rebuilt = scrape.histogram("q_micros");
        let direct = h.snapshot();
        assert_eq!(rebuilt.count, 6);
        assert_eq!(rebuilt.buckets, direct.buckets);
        assert_eq!(rebuilt.p50(), direct.p50());
        assert_eq!(scrape.family_sum("c_total", "route=\"/x\""), 4.0);
        let empty = Scrape::default().histogram("q_micros");
        assert_eq!(histogram_diff(&empty, &rebuilt).count, 6);
    }
}
