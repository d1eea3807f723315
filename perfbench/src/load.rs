//! Open- and closed-loop load generation, latency statistics, and the
//! open-loop rate search.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::Conn;

/// Per-request timeout; a request slower than this is a failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Sends request number `k` on a connection and checks the reply.
/// `Err` carries the reason the operation failed.
pub type Job<'a> = dyn Fn(&mut Conn, u64) -> Result<(), String> + Sync + 'a;

/// What one load phase observed.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// `(request number, latency in microseconds)` per completed
    /// request; failed requests are recorded as `u64::MAX` so they miss
    /// any limit.
    pub latencies_us: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Open loop: how late each send left against its schedule.
    pub late_us: Vec<u64>,
    /// Open loop: requests scheduled in the window but never sent
    /// because the generator fell more than the grace period behind.
    pub abandoned: u64,
    /// Open loop: first and last actual send time, relative to start.
    pub first_send: Duration,
    pub last_send: Duration,
    pub elapsed: Duration,
}

impl Phase {
    fn record(&mut self, k: u64, latency: Duration, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self
                .latencies_us
                .push((k, latency.as_micros().min(u64::MAX as u128 - 1) as u64)),
            Err(why) => {
                self.failed += 1;
                self.latencies_us.push((k, u64::MAX));
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
            }
        }
    }

    pub fn merge(&mut self, other: Phase) {
        self.latencies_us.extend(other.latencies_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
        self.late_us.extend(other.late_us);
        self.abandoned += other.abandoned;
    }

    /// Sorted latencies in milliseconds (failures as infinity).
    pub fn sorted_ms(&self) -> Vec<f64> {
        sorted_ms(self.latencies_us.iter().map(|&(_, us)| us))
    }

    /// The tail statistic: `(percentile, value in ms)`. A phase with at
    /// least three windows' worth of samples is cut, in request order,
    /// into windows of [`WINDOW_SAMPLES`], and the median of the
    /// windows' tails is reported, so a host stall moves the windows it
    /// covers, not the result.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.latencies_us.len();
        let windows = n / WINDOW_SAMPLES;
        if windows < 3 {
            return tail(&self.sorted_ms());
        }
        let mut ordered = self.latencies_us.clone();
        ordered.sort_unstable();
        let tails: Vec<(f64, f64)> = (0..windows)
            .map(|w| {
                let part = &ordered[w * n / windows..(w + 1) * n / windows];
                tail(&sorted_ms(part.iter().map(|&(_, us)| us)))
            })
            .collect();
        let mut values: Vec<f64> = tails.iter().map(|t| t.1).collect();
        values.sort_by(f64::total_cmp);
        let pct = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
        (pct, quantile(&values, 0.5))
    }

    /// Achieved arrival rate: sends per second between the first and
    /// the last send.
    pub fn arrival_rate(&self) -> f64 {
        let span = self.last_send.saturating_sub(self.first_send).as_secs_f64();
        if self.attempted < 2 || span <= 0.0 {
            return 0.0;
        }
        (self.attempted - 1) as f64 / span
    }
}

/// Samples per tail window; a window of 200 reports its p95, so a
/// regression that slows 5% of requests or more moves the result. On a
/// shared two-vCPU host, stalls of tens of milliseconds hit whole
/// seconds of a run, and the median over windows confines a stall to
/// the windows it covers. Rarer slowdowns cannot be gated here: across
/// seeds of `recommend_hot` (sub-millisecond replies, where scheduler
/// delays make the tail), the median of windows' p99 moved by 0.4-0.7
/// of its median, of 500-sample windows' p98 by 0.19-0.5, of
/// 200-sample windows' p95 by 0.11-0.15, and the whole-run p99 by more
/// than its median. The whole-run p99 is in the run record.
const WINDOW_SAMPLES: usize = 200;

fn sorted_ms(us: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = us
        .map(|us| {
            if us == u64::MAX {
                f64::INFINITY
            } else {
                us as f64 / 1e3
            }
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of sorted values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted[lo], sorted[hi]);
    if lo == hi || a == b {
        a
    } else {
        a + (b - a) * (pos - lo as f64)
    }
}

/// Percentiles the tail statistic may report, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile with at least ten samples beyond it and its
/// value; with fewer than twenty samples, the maximum (percentile 100).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    for pct in TAIL_LADDER {
        if n * (1.0 - pct / 100.0) >= 10.0 - 1e-9 {
            return (pct, quantile(sorted, pct / 100.0));
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0.0))
}

/// Open loop: request `k` is due at `start + k / rate` for every `k`
/// below `total`, whatever the state of earlier requests. Up to
/// `conns` keep-alive connections, one thread each, take the next due
/// request as soon as they are free, and every latency is timed from
/// the due time, so waiting for a free connection counts. A thread
/// that falls more than `grace` behind the last due time stops; the
/// requests it did not send count as abandoned.
///
/// `scrape`, when given, runs on the first connection once a second
/// (a metrics scraper); it is not a timed request.
#[allow(clippy::too_many_arguments)] // each is one knob of the schedule
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    total: u64,
    grace: Duration,
    first_k: u64,
    job: &Job,
    scrape: Option<&(dyn Fn(&mut Conn) + Sync)>,
) -> Phase {
    let next = AtomicU64::new(0);
    let merged = Mutex::new(Phase::default());
    let start = Instant::now();
    let cutoff = Duration::from_secs_f64(total as f64 / rate) + grace;
    std::thread::scope(|s| {
        for t in 0..conns.max(1) {
            let (next, merged) = (&next, &merged);
            s.spawn(move || {
                let mut conn = Conn::new(addr, REQUEST_TIMEOUT);
                let mut mine = Phase::default();
                let mut first = None;
                let mut last = Duration::ZERO;
                let mut next_scrape = Duration::from_secs(1);
                loop {
                    if let (0, Some(scrape)) = (t, scrape) {
                        if start.elapsed() >= next_scrape {
                            scrape(&mut conn);
                            next_scrape += Duration::from_secs(1);
                        }
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total {
                        break;
                    }
                    let due = Duration::from_secs_f64(k as f64 / rate);
                    let now = start.elapsed();
                    if now > cutoff {
                        break;
                    }
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = start.elapsed();
                    first.get_or_insert(sent);
                    last = sent;
                    mine.late_us
                        .push(sent.saturating_sub(due).as_micros() as u64);
                    let outcome = job(&mut conn, first_k + k);
                    mine.record(k, start.elapsed().saturating_sub(due), outcome);
                }
                let mut m = merged
                    .lock()
                    .expect("no thread panics holding the phase lock");
                let m_first = if m.attempted == 0 {
                    first
                } else {
                    first.map(|f| f.min(m.first_send)).or(Some(m.first_send))
                };
                m.first_send = m_first.unwrap_or_default();
                m.last_send = m.last_send.max(last);
                m.merge(mine);
            });
        }
    });
    let mut phase = merged.into_inner().expect("no thread panicked");
    phase.abandoned = total.saturating_sub(phase.attempted);
    phase.elapsed = start.elapsed();
    phase
}

/// Closed loop with one client: the next request leaves when the
/// previous reply arrives, until `window` has passed or `limit`
/// requests were sent.
pub fn closed_loop(addr: SocketAddr, window: Duration, limit: u64, job: &Job) -> Phase {
    let mut conn = Conn::new(addr, REQUEST_TIMEOUT);
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < window && k < limit {
        let t = Instant::now();
        let outcome = job(&mut conn, k);
        phase.record(k, t.elapsed(), outcome);
        k += 1;
    }
    phase.elapsed = start.elapsed();
    phase
}

/// The rate search's climbing step. Starting it near the parent's
/// knee keeps the steps fine: with a factor of 1.25, `max_rps` landed
/// on one of a few step rates and moved by a sixth between seeds.
const SEARCH_FACTOR: f64 = 1.12;

/// One step of the rate search.
#[derive(Debug, Clone)]
pub struct Step {
    pub rate: f64,
    pub arrival_rate: f64,
    pub pass: bool,
    pub tail_pct: f64,
    pub tail_ms: f64,
    pub samples: usize,
}

/// Finds the highest arrival rate whose tail stays within `limit`
/// with no failed or abandoned request and no growing backlog. It
/// climbs (or descends) from `start` by [`SEARCH_FACTOR`] until a pass
/// and a failure bracket the answer, then bisects the bracket
/// geometrically while `steps` last. Returns the highest achieved
/// arrival rate among passing steps (the lowest step's, when none
/// passed) and every step.
pub fn rate_search(
    start: f64,
    steps: usize,
    limit_ms: f64,
    mut run_step: impl FnMut(f64) -> Phase,
    phases: &mut Phase,
) -> (f64, Vec<Step>) {
    let mut best: Option<(f64, f64)> = None;
    let mut lowest_fail: Option<f64> = None;
    let mut log = Vec::new();
    let mut rate = start;
    for _ in 0..steps {
        let phase = run_step(rate);
        let (tail_pct, tail_ms) = phase.tail();
        let arrival = phase.arrival_rate();
        // A generator more than a tenth behind its schedule means the
        // backlog grew over the step, even if the tail stayed in bounds.
        let pass = phase.failed == 0
            && phase.abandoned == 0
            && tail_ms <= limit_ms
            && arrival >= 0.9 * rate;
        log.push(Step {
            rate,
            arrival_rate: arrival,
            pass,
            tail_pct,
            tail_ms,
            samples: phase.latencies_us.len(),
        });
        // A probe that misses the limit is a finding, not a failed
        // operation: only the probes' failed requests count in the run.
        phases.attempted += phase.attempted;
        phases.failed += phase.failed;
        phases.failures.extend(phase.failures);
        phases.failures.truncate(5);
        if pass {
            if best.is_none_or(|(r, _)| rate > r) {
                best = Some((rate, best.map_or(arrival, |(_, a)| arrival.max(a))));
            }
        } else if lowest_fail.is_none_or(|r| rate < r) {
            lowest_fail = Some(rate);
        }
        rate = match (best, lowest_fail) {
            (Some((lo, _)), Some(hi)) => (lo * hi).sqrt(),
            (Some((lo, _)), None) => lo * SEARCH_FACTOR,
            (None, Some(hi)) => hi / SEARCH_FACTOR,
            (None, None) => unreachable!("a step either passed or failed"),
        };
    }
    let max_rps = match best {
        Some((_, arrival)) => arrival,
        None => log
            .iter()
            .min_by(|a, b| a.rate.total_cmp(&b.rate))
            .map_or(0.0, |s| s.arrival_rate),
    };
    (max_rps, log)
}

/// Requests an open-loop window of `secs` seconds at `rate` schedules.
pub fn requests_in(secs: f64, rate: f64) -> u64 {
    (secs * rate).floor().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        assert_eq!(tail(&v[..19]), (100.0, 19.0));
    }

    #[test]
    fn windowed_tail_shrugs_off_one_stalled_window() {
        let mut phase = Phase::default();
        for k in 0..2_000u64 {
            // One 200-request window stalls at 50 ms; the rest take 1 ms.
            let us = if (400..600).contains(&k) {
                50_000
            } else {
                1_000
            };
            phase.latencies_us.push((k, us));
        }
        let (pct, ms) = phase.tail();
        assert_eq!(pct, 95.0);
        assert_eq!(ms, 1.0);
    }

    #[test]
    fn windowed_tail_sees_a_slowdown_of_one_request_in_fifteen() {
        let mut phase = Phase::default();
        for k in 0..2_000u64 {
            // Every fifteenth request is 5 ms slower.
            let us = if k % 15 == 0 { 6_000 } else { 1_000 };
            phase.latencies_us.push((k, us));
        }
        assert_eq!(phase.tail(), (95.0, 6.0));
    }
}
