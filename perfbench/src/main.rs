//! The MINARET benchmark: drives the real `minaret-server` binary over
//! loopback TCP with one of four workloads, checks every reply, and
//! prints one JSON result line. With `--trace 1` it also replays the
//! workload's inputs in-process through each layer's public calls and
//! prints the per-layer metrics instead. See `perfbench/README.md`.

mod checks;
mod client;
mod inputs;
mod load;
mod prom;
mod replay;
mod server;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minaret_core::ManuscriptDetails;
use minaret_json::Value;
use minaret_server::AppState;
use minaret_synth::SubmissionSpec;
use minaret_telemetry::Telemetry;

use crate::checks::{check_assign, check_recommend, same_as_report, AssignReply, RecReply};
use crate::client::{Conn, Reply};
use crate::load::{closed_loop, open_loop, quantile, rate_search, requests_in, Phase, Step};
use crate::prom::Scrape;
use crate::server::ServerProc;

/// Seed of the server's synthetic world (the server's default). The
/// workload seed drives the manuscripts, never the world.
const WORLD_SEED: u64 = 42;
/// `/assign` spec: reviewers per paper, and the binding load cap at
/// which the flow refinement beats the greedy seed.
const ASSIGN_K: usize = 3;
const ASSIGN_MAX_LOAD: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Fresh,
    Hot,
    Assign,
    Cold,
}

/// One workload's shape.
#[derive(Clone, Debug)]
struct Workload {
    name: &'static str,
    kind: Kind,
    scholars: usize,
    /// Server boots per run; `setup_s` is the fastest. On a shared
    /// two-vCPU host a boot takes either about 1x or about 1.45x its
    /// uncontended time, depending on what else runs on the host for a
    /// few seconds at a time: the median of the boots flipped between
    /// the two (sets of runs 24% apart), while the fastest held steady.
    boots: usize,
    /// Closed loop: operations per second of `--seconds`, near the
    /// parent's completion rate. A run sends this fixed amount of work
    /// (the time is only a cap), so a faster server does the same work
    /// sooner instead of more work.
    ops_per_second: f64,
    /// Open loop: the fixed arrival rate, where the search starts (near
    /// the parent's `max_rps`), and the tail limit.
    fixed_rate: f64,
    search_start: f64,
    limit_ms: f64,
    /// Open loop: rate-search steps, sharing half the run.
    search_steps: usize,
    /// Manuscripts sent before timing (`recommend_fresh`: a disjoint
    /// stream filling the profile memo; `recommend_hot`: the pool).
    warm: usize,
    /// `assign_batch`: manuscripts per batch.
    batch: usize,
    /// Replies checked against an in-process recommendation.
    sample: usize,
}

fn workload(name: &str, toy: bool) -> Option<Workload> {
    let base = |name, kind, scholars| Workload {
        name,
        kind,
        scholars,
        boots: 11,
        ops_per_second: 0.0,
        fixed_rate: 0.0,
        search_start: 0.0,
        limit_ms: 0.0,
        search_steps: 4,
        warm: 0,
        batch: 0,
        sample: 3,
    };
    let mut w = match name {
        "recommend_fresh" => Workload {
            fixed_rate: 6.5,
            search_start: 12.5,
            limit_ms: 1000.0,
            warm: 40,
            ..base("recommend_fresh", Kind::Fresh, 2_000)
        },
        // A fifth of `max_rps`, not half: at 6 000 req/s the generator
        // and the server contend for the two vCPUs and the tail moved
        // with host load; at 3 000 it held within a few percent.
        "recommend_hot" => Workload {
            fixed_rate: 3000.0,
            search_start: 17000.0,
            limit_ms: 10.0,
            // Two more bisections than `recommend_fresh` can afford: a
            // 2 s step still holds about 36 000 requests here, and with
            // four steps `max_rps` landed on a few rates 12% apart.
            search_steps: 6,
            warm: 64,
            ..base("recommend_hot", Kind::Hot, 2_000)
        },
        // Six batches of 4-6 s each at `--seconds 24`: with four, the
        // seed alone moved `coverage_at_k` by 0.21 of its median.
        "assign_batch" => Workload {
            batch: 50,
            sample: 0,
            ops_per_second: 0.25,
            ..base("assign_batch", Kind::Assign, 10_000)
        },
        // 10^4 scholars, not 10^5: at 10^5 a run serves about a dozen
        // requests of 0.5-5 s, and p50, max_rps and CPU per request
        // moved by 40% between seeds. At 10^4 a run still flushes the
        // memtable about ten times and compacts once.
        "cold_store" => Workload {
            sample: 2,
            ops_per_second: 2.0,
            ..base("cold_store", Kind::Cold, 10_000)
        },
        _ => return None,
    };
    if toy {
        w.scholars = if w.kind == Kind::Cold { 1_000 } else { 200 };
        w.boots = 2;
        w.warm = w.warm.min(8);
        w.batch = w.batch.min(8);
        w.sample = w.sample.min(1);
        w.ops_per_second = w.ops_per_second.max(1.0);
        w.fixed_rate = w.fixed_rate.min(20.0);
        w.search_start = w.search_start.min(40.0);
    }
    Some(w)
}

const WORKLOADS: [&str; 4] = [
    "recommend_fresh",
    "recommend_hot",
    "assign_batch",
    "cold_store",
];

/// The metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("max_rps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("rss_mb", "MB"),
    ("total_score", "score"),
    ("coverage_at_k", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    cli_bin: PathBuf,
    out_dir: PathBuf,
    /// Self-test only: shrink every workload to a toy size.
    toy: bool,
    self_test: bool,
    /// Self-test only: truncate the first timed reply before checking
    /// it, which the checks must count as a failure.
    tamper: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        cli_bin: PathBuf::new(),
        out_dir: PathBuf::from(".perfbench"),
        toy: false,
        self_test: false,
        tamper: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            "--server-bin" => args.server_bin = value.into(),
            "--cli-bin" => args.cli_bin = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.server_bin.is_file() || !args.cli_bin.is_file() {
        return Err("--server-bin and --cli-bin must name the built binaries".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's user plus system CPU time.
fn self_cpu() -> Duration {
    server::cpu_time_of("self")
}

/// Everything one run measured, for the result line, the per-layer
/// metrics and the run record.
#[derive(Default)]
struct Run {
    setups: Vec<f64>,
    server_flags: Vec<String>,
    warm: Phase,
    timed: Phase,
    search: Vec<Step>,
    max_rps: f64,
    search_phase: Phase,
    server_cpu: Duration,
    loadgen_cpu: Duration,
    cpu_ms_per_op: f64,
    rss_mb: f64,
    /// Median round trip of the run's `GET /metrics` requests.
    scrape_ms: f64,
    before: Scrape,
    after: Scrape,
    total_score: f64,
    coverage_at_k: f64,
    check_failures: Vec<String>,
    assign_replies: Vec<AssignReply>,
}

/// The world, in-process state and inputs one run uses.
struct Inputs {
    state: Arc<AppState>,
    /// Each manuscript's ground truth, index-aligned with it.
    warm_specs: Vec<SubmissionSpec>,
    warm: Vec<ManuscriptDetails>,
    timed_specs: Vec<SubmissionSpec>,
    timed: Vec<ManuscriptDetails>,
    bodies: Vec<Vec<u8>>,
    warm_bodies: Vec<Vec<u8>>,
}

/// Operations a closed-loop run sends.
fn closed_ops(w: &Workload, seconds: f64) -> usize {
    (seconds * w.ops_per_second).round().max(1.0) as usize
}

/// A closed-loop run stops sending after this many times `--seconds`,
/// even with operations left, so a run ends well within its budget.
const CLOSED_CAP: f64 = 3.0;

fn build_inputs(w: &Workload, seed: u64, seconds: f64) -> Inputs {
    // Cache off: the in-process reference always runs the pipeline.
    let state = AppState::demo_with_data_dir(w.scholars, WORLD_SEED, Telemetry::new(), 0, None)
        .expect("a RAM-only state opens no store");
    let world = &state.world;
    let timed_n = match w.kind {
        // Enough for the fixed phase and every search step at up to
        // four times the search's starting rate.
        Kind::Fresh => (seconds * w.search_start * 4.0) as usize + 64,
        Kind::Hot => w.warm,
        Kind::Assign => w.batch * closed_ops(w, seconds),
        Kind::Cold => closed_ops(w, seconds),
    };
    let (warm_specs, warm) = inputs::manuscripts(world, seed ^ 0x5741_524d, "warm", w.warm);
    let (timed_specs, timed) = inputs::manuscripts(world, seed, "timed", timed_n);
    let bodies = match w.kind {
        Kind::Assign => timed
            .chunks(w.batch)
            .filter(|c| c.len() == w.batch)
            .map(|c| inputs::assign_body(c, ASSIGN_K, ASSIGN_MAX_LOAD))
            .collect(),
        _ => timed.iter().map(inputs::recommend_body).collect(),
    };
    let warm_bodies = warm.iter().map(inputs::recommend_body).collect();
    Inputs {
        state,
        warm_specs,
        warm,
        timed_specs,
        timed,
        bodies,
        warm_bodies,
    }
}

fn server_flags(w: &Workload, data_dir: Option<&Path>) -> Vec<String> {
    let mut f: Vec<String> = vec![
        "--scholars".into(),
        w.scholars.to_string(),
        "--seed".into(),
        WORLD_SEED.to_string(),
        "--keepalive-max-requests".into(),
        "1000000".into(),
        "--idle-timeout-ms".into(),
        "0".into(),
    ];
    if w.kind == Kind::Hot {
        // Longer than any run: every timed request is a cache hit.
        f.extend(["--cache-ttl-ms".into(), "3600000".into()]);
    }
    if let Some(dir) = data_dir {
        f.extend(["--data-dir".into(), dir.display().to_string()]);
    }
    f
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// One `GET /metrics` on `conn`: the parsed exposition, with its round
/// trip in milliseconds appended to `times`.
fn scrape_on(conn: &mut Conn, times: &Mutex<Vec<f64>>) -> Scrape {
    let t = Instant::now();
    match conn.send(&Conn::encode("GET", "/metrics", b"")) {
        Ok(r) if r.status == 200 => {
            times
                .lock()
                .expect("lock")
                .push(t.elapsed().as_secs_f64() * 1e3);
            Scrape::parse(&String::from_utf8_lossy(&r.body))
        }
        _ => Scrape::default(),
    }
}

/// `cold_store`: writes the pristine snapshot every boot copies.
fn make_snapshot(args: &Args, w: &Workload, pristine: &Path) -> Result<(), String> {
    let out = std::process::Command::new(&args.cli_bin)
        .args(["synth", "--scholars", &w.scholars.to_string()])
        .args(["--seed", &WORLD_SEED.to_string(), "--data-dir"])
        .arg(pristine)
        .output()
        .map_err(|e| format!("cannot run minaret synth: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "minaret synth failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// Boots the server `count` times, recording each set-up time, and
/// keeps the last one running. On `cold_store`, every boot opens its
/// own fresh copy of the pristine snapshot (copied before the clock
/// starts).
fn boot(
    args: &Args,
    w: &Workload,
    run: &mut Run,
    scratch: &Path,
    count: usize,
) -> Result<ServerProc, String> {
    let mut last = None;
    for _ in 0..count {
        drop(last.take());
        let data_dir =
            (w.kind == Kind::Cold).then(|| scratch.join(format!("boot{}", run.setups.len())));
        if let Some(dir) = &data_dir {
            copy_dir(&scratch.join("pristine"), dir)
                .map_err(|e| format!("copying the snapshot: {e}"))?;
        }
        run.server_flags = server_flags(w, data_dir.as_deref());
        let proc = ServerProc::boot(&args.server_bin, &run.server_flags)?;
        run.setups.push(proc.setup.as_secs_f64());
        last = Some(proc);
    }
    last.ok_or_else(|| "no boot".to_string())
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// A very high arrival rate: every request is due at once, so the
/// connections work through them back to back.
const AT_ONCE: f64 = 1e9;

fn drive(args: &Args, w: &Workload, inp: &Inputs, run: &mut Run, srv: &ServerProc) {
    let addr = srv.addr;
    let conns = nproc();
    let secs = args.seconds;
    let recorded: Mutex<BTreeMap<u64, RecReply>> = Mutex::new(BTreeMap::new());
    let hot_bodies: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; inp.warm.len()]);

    // ---- warm-up / priming (untimed) ----------------------------------
    match w.kind {
        Kind::Fresh | Kind::Hot => {
            let job = |c: &mut Conn, k: u64| -> Result<(), String> {
                let k = k as usize;
                let r = c
                    .send(&Conn::encode("POST", "/recommend", &inp.warm_bodies[k]))
                    .map_err(|e| format!("io: {e}"))?;
                check_recommend(r.status, &r.body)?;
                hot_bodies.lock().expect("lock")[k] = Some(r.body);
                Ok(())
            };
            let n = inp.warm.len() as u64;
            run.warm = open_loop(
                addr,
                conns,
                AT_ONCE,
                n,
                Duration::from_secs(120),
                0,
                &job,
                None,
            );
        }
        Kind::Assign | Kind::Cold => {}
    }
    let hot_bodies: Vec<Option<Vec<u8>>> = hot_bodies.into_inner().expect("lock");

    // ---- the timed phase ----------------------------------------------
    let zipf = inputs::Zipf::new(inp.warm.len().max(1));
    let seed = args.seed;
    let send = |c: &mut Conn, k: u64, path: &str, body: &[u8]| -> Result<Reply, String> {
        let mut r = c
            .send(&Conn::encode("POST", path, body))
            .map_err(|e| format!("io: {e}"))?;
        if args.tamper && k == 0 {
            r.body.pop();
        }
        Ok(r)
    };
    let recommend_job = |c: &mut Conn, k: u64| -> Result<(), String> {
        let i = k as usize;
        let body = inp.bodies.get(i).ok_or("ran out of fresh manuscripts")?;
        let r = send(c, k, "/recommend", body)?;
        let reply = check_recommend(r.status, &r.body)?;
        recorded.lock().expect("lock").insert(k, reply);
        Ok(())
    };
    let hot_job = |c: &mut Conn, k: u64| -> Result<(), String> {
        let i = zipf.pick(seed, k);
        let r = send(c, k, "/recommend", &inp.warm_bodies[i])?;
        if r.status != 200 || hot_bodies[i].as_deref() != Some(r.body.as_slice()) {
            return Err(format!("hot reply {i} differs from its primed bytes"));
        }
        Ok(())
    };
    let assign_replies: Mutex<Vec<AssignReply>> = Mutex::new(Vec::new());
    let assign_job = |c: &mut Conn, k: u64| -> Result<(), String> {
        let body = inp
            .bodies
            .get(k as usize)
            .ok_or("ran out of assign batches")?;
        let r = send(c, k, "/assign", body)?;
        let reply = check_assign(r.status, &r.body, w.batch, ASSIGN_K, ASSIGN_MAX_LOAD)?;
        assign_replies.lock().expect("lock").push(reply);
        Ok(())
    };
    let scrape_times: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let scraper = |c: &mut Conn| {
        scrape_on(c, &scrape_times);
    };
    // The counters are diffed over the timed phase, read on a
    // connection of their own.
    let mut diff_conn = Conn::new(addr, load::REQUEST_TIMEOUT);

    // Open-loop workloads split the run: the fixed rate first, then the
    // rate search (skipped on a traced run, which replays instead).
    let fixed_share = 0.5;
    let steps = w.search_steps;
    run.before = scrape_on(&mut diff_conn, &scrape_times);
    let cpu0 = srv.cpu_time();
    let self0 = self_cpu();
    match w.kind {
        Kind::Fresh | Kind::Hot => {
            let job: &load::Job = if w.kind == Kind::Fresh {
                &recommend_job
            } else {
                &hot_job
            };
            let scr: Option<&(dyn Fn(&mut Conn) + Sync)> =
                (w.kind == Kind::Hot).then_some(&scraper);
            let n = requests_in(secs * fixed_share, w.fixed_rate);
            let grace = Duration::from_secs_f64(w.limit_ms / 1e3 * 5.0);
            run.timed = open_loop(addr, conns, w.fixed_rate, n, grace, 0, job, scr);
        }
        Kind::Assign | Kind::Cold => {
            let job: &load::Job = if w.kind == Kind::Assign {
                &assign_job
            } else {
                &recommend_job
            };
            let limit = inp.bodies.len() as u64;
            let cap = Duration::from_secs_f64(secs * CLOSED_CAP);
            run.timed = closed_loop(addr, cap, limit, job);
        }
    }
    run.server_cpu = srv.cpu_time().saturating_sub(cpu0);
    run.loadgen_cpu = self_cpu().saturating_sub(self0);
    run.after = scrape_on(&mut diff_conn, &scrape_times);
    // Abandoned sends at the fixed rate missed every limit: failures.
    run.timed.attempted += run.timed.abandoned;
    run.timed.failed += run.timed.abandoned;

    let completed = run.timed.attempted - run.timed.failed;
    if matches!(w.kind, Kind::Fresh | Kind::Hot) && !args.trace {
        let step_secs = secs * (1.0 - fixed_share) / steps as f64;
        let grace = Duration::from_secs_f64(w.limit_ms / 1e3 * 2.0);
        let job: &load::Job = if w.kind == Kind::Fresh {
            &recommend_job
        } else {
            &hot_job
        };
        let scr: Option<&(dyn Fn(&mut Conn) + Sync)> = (w.kind == Kind::Hot).then_some(&scraper);
        let mut next_k = run.timed.attempted;
        let mut search_phase = Phase::default();
        let (max_rps, log) = rate_search(
            w.search_start,
            steps,
            w.limit_ms,
            |rate| {
                let n = requests_in(step_secs, rate);
                let p = open_loop(addr, conns, rate, n, grace, next_k, job, scr);
                next_k += p.attempted + p.abandoned;
                p
            },
            &mut search_phase,
        );
        run.max_rps = max_rps;
        run.search = log;
        run.search_phase = search_phase;
    } else {
        // One waiting client: the rate it achieves is the most this
        // workload can be served at.
        run.max_rps = completed as f64 / run.timed.elapsed.as_secs_f64();
    }
    // CPU per operation over the fixed phase and the search together:
    // more operations average over more of the seed's manuscripts.
    let ops = completed + run.search_phase.attempted - run.search_phase.failed;
    run.cpu_ms_per_op = srv.cpu_time().saturating_sub(cpu0).as_secs_f64() * 1e3 / ops.max(1) as f64;
    run.rss_mb = srv.peak_rss_mb();
    run.scrape_ms = median(&scrape_times.into_inner().expect("lock"));

    // ---- quality, from the replies ------------------------------------
    let recorded = recorded.into_inner().expect("lock");
    if w.kind == Kind::Assign {
        let replies = assign_replies.into_inner().expect("lock");
        let n = replies.len().max(1) as f64;
        run.total_score = replies.iter().map(|r| r.total_score).sum::<f64>() / n;
        run.coverage_at_k = replies.iter().map(|r| r.coverage_at_k).sum::<f64>() / n;
        run.assign_replies = replies;
    }
    // The pool on `recommend_hot`; elsewhere every reply of the run,
    // search probes included: the more manuscripts, the less the
    // quality figures depend on the seed.
    let answered: Vec<(&SubmissionSpec, &ManuscriptDetails, RecReply)> = match w.kind {
        Kind::Hot => inp
            .warm_specs
            .iter()
            .zip(&inp.warm)
            .zip(&hot_bodies)
            .filter_map(|((s, m), b)| Some((s, m, check_recommend(200, b.as_deref()?).ok()?)))
            .collect(),
        Kind::Fresh | Kind::Cold => recorded
            .into_iter()
            .map(|(k, r)| (&inp.timed_specs[k as usize], &inp.timed[k as usize], r))
            .collect(),
        Kind::Assign => Vec::new(),
    };
    if w.kind != Kind::Assign {
        let n = answered.len().max(1) as f64;
        run.total_score = answered
            .iter()
            .map(|(_, _, r)| r.totals.iter().sum::<f64>())
            .sum::<f64>()
            / n;
        run.coverage_at_k =
            checks::relevant_share(&inp.state.world, answered.iter().map(|(s, _, r)| (*s, r)));
    }

    // ---- sampled replies against in-process recommendations -----------
    for (_, m, reply) in answered.iter().take(w.sample) {
        match inp.state.minaret.recommend(m) {
            Ok(report) => {
                if let Err(e) = same_as_report(reply, &report) {
                    run.check_failures
                        .push(format!("sample {:?}: {e}", m.title));
                }
            }
            Err(e) => run
                .check_failures
                .push(format!("in-process recommend failed: {e}")),
        }
    }
}

fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let sorted = run.timed.sorted_ms();
    let (_, tail_ms) = run.timed.tail();
    BTreeMap::from([
        ("setup_s", run.setups.iter().copied().fold(f64::INFINITY, f64::min)),
        ("p50_ms", quantile(&sorted, 0.5)),
        ("tail_ms", tail_ms),
        ("max_rps", run.max_rps),
        ("cpu_ms_per_op", run.cpu_ms_per_op),
        ("rss_mb", run.rss_mb),
        ("total_score", run.total_score),
        ("coverage_at_k", run.coverage_at_k),
    ])
}

/// Host facts, inputs and sample counts, written next to every result.
fn run_record(args: &Args, w: &Workload, run: &Run, metrics: &BTreeMap<&str, f64>) -> Value {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    // Only this checkout's own repository: git would otherwise search
    // the parent directories of a plain source tree.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
        })
        .and_then(Result::ok)
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let sorted = run.timed.sorted_ms();
    let (tail_pct, _) = run.timed.tail();
    let late: Vec<f64> = {
        let mut v: Vec<f64> = run.timed.late_us.iter().map(|&u| u as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let steps: Vec<Value> = run
        .search
        .iter()
        .map(|s| {
            Value::object()
                .set("rate", s.rate)
                .set("arrival_rate", s.arrival_rate)
                .set("pass", s.pass)
                .set("tail_pct", s.tail_pct)
                .set("tail_ms", s.tail_ms)
                .set("samples", s.samples)
        })
        .collect();
    let mut m = Value::object();
    for (k, v) in metrics {
        m = m.set(k, *v);
    }
    Value::object()
        .set(
            "host",
            Value::object()
                .set("nproc", nproc())
                .set(
                    "build_profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                )
                .set("rustc", rustc)
                .set("commit", commit),
        )
        .set(
            "inputs",
            Value::object()
                .set("workload", w.name)
                .set("seed", args.seed)
                .set("world_seed", WORLD_SEED)
                .set("scholars", w.scholars)
                .set("seconds", args.seconds)
                .set("trace", args.trace)
                .set("toy", args.toy)
                .set(
                    "server_flags",
                    run.server_flags
                        .iter()
                        .map(|f| Value::from(f.as_str()))
                        .collect::<Vec<_>>(),
                ),
        )
        .set(
            "samples",
            Value::object()
                .set("boots", run.setups.len())
                .set(
                    "setups_s",
                    run.setups.iter().map(|&v| Value::from(v)).collect::<Vec<_>>(),
                )
                .set("warm", run.warm.attempted)
                .set("timed", run.timed.attempted)
                .set("timed_failed", run.timed.failed)
                .set("search", run.search_phase.attempted)
                .set("tail_pct", tail_pct)
                .set(
                    "percentiles_ms",
                    [50.0, 90.0, 99.0, 99.9, 99.99, 100.0]
                        .iter()
                        .map(|&p| Value::from(quantile(&sorted, p / 100.0)))
                        .collect::<Vec<_>>(),
                )
                .set("fail_ratio", fail_ratio(run)),
        )
        .set("loadgen_late_p99_ms", quantile(&late, 0.99))
        .set("search_steps", steps)
        .set(
            "failures",
            run.timed
                .failures
                .iter()
                .chain(&run.search_phase.failures)
                .chain(&run.warm.failures)
                .chain(&run.check_failures)
                .map(|f| Value::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("metrics", m)
}

fn totals(run: &Run) -> (u64, u64) {
    let attempted = run.warm.attempted + run.timed.attempted + run.search_phase.attempted;
    let failed = run.warm.failed
        + run.timed.failed
        + run.search_phase.failed
        + run.check_failures.len() as u64;
    (attempted.max(1), failed)
}

fn fail_ratio(run: &Run) -> f64 {
    let (a, f) = totals(run);
    f as f64 / a as f64
}

/// What one run prints: the output checks' verdict, the operation
/// counts, and `(name, value, unit)` per metric.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line.
    fn line(&self) -> String {
        let mut m = Value::object();
        for &(name, value, unit) in &self.metrics {
            m = m.set(name, Value::object().set("value", value).set("unit", unit));
        }
        Value::object()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", m)
            .to_string()
    }
}

/// Runs one workload.
fn run_workload(args: &Args, w: &Workload) -> Result<Outcome, String> {
    let scratch = args.out_dir.join(format!(
        "{}-seed{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let _cleanup = RemoveOnDrop(scratch.clone());
    {
        let inp = build_inputs(w, args.seed, args.seconds);
        let mut run = Run::default();
        if w.kind == Kind::Cold {
            make_snapshot(args, w, &scratch.join("pristine"))?;
        }
        // Half the boots come before the timed phase and half after it:
        // a host's slow spells last seconds, longer than a row of boots.
        let mut srv = boot(args, w, &mut run, &scratch, w.boots - w.boots / 2)?;
        drive(args, w, &inp, &mut run, &srv);
        srv.stop();
        drop(srv);
        let served_flags = std::mem::take(&mut run.server_flags);
        drop(boot(args, w, &mut run, &scratch, w.boots / 2)?);
        run.server_flags = served_flags;
        let e2e = end_to_end(&run);
        let (attempted, failed) = totals(&run);
        let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
            let layers = replay::replay(&replay::Ctx {
                kind: w.kind,
                scholars: w.scholars,
                world_seed: WORLD_SEED,
                state: &inp.state,
                warm: &inp.warm,
                bodies: &inp.bodies,
                warm_bodies: &inp.warm_bodies,
                hot_picks: {
                    let zipf = inputs::Zipf::new(inp.warm.len().max(1));
                    (0..run.timed.attempted)
                        .map(|k| zipf.pick(args.seed, k))
                        .collect()
                },
                replayed: run.timed.attempted.min(inp.bodies.len() as u64) as usize,
                spec: (ASSIGN_K, ASSIGN_MAX_LOAD),
                assign_replies: &run.assign_replies,
                before: &run.before,
                after: &run.after,
                completed: run.timed.attempted - run.timed.failed,
                phase: &run.timed,
                e2e_p50_ms: e2e["p50_ms"],
                scrape_ms: run.scrape_ms,
                loadgen_cpu: run.loadgen_cpu,
                server_cpu: run.server_cpu,
                scratch: &scratch,
                pristine: &scratch.join("pristine"),
                spans_out: &args
                    .out_dir
                    .join(format!("{}-seed{}-spans.jsonl", w.name, args.seed)),
            });
            replay::LAYER_METRICS
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name, e2e[name], unit))
                .collect()
        };
        let record_metrics: BTreeMap<&str, f64> = metrics.iter().map(|&(n, v, _)| (n, v)).collect();
        let record = run_record(args, w, &run, &record_metrics);
        let path = args.out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            w.name, args.seed, args.trace as u8
        ));
        let _ = std::fs::write(&path, record.to_string());
        for f in run
            .timed
            .failures
            .iter()
            .chain(&run.search_phase.failures)
            .chain(&run.warm.failures)
            .chain(&run.check_failures)
        {
            eprintln!("perfbench: failure: {f}");
        }
        eprintln!("perfbench: run record {}", path.display());
        Ok(Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        })
    }
}

/// Removes a run's scratch directory however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A toy-sized pass of every workload, traced and untraced, checking
/// that each named metric is printed with its unit and is finite.
fn self_test(args: &Args) -> Result<(), String> {
    let toy = |name: &str, trace: bool, tamper: bool| Args {
        workload: name.into(),
        seed: 7,
        seconds: 2.0,
        trace,
        server_bin: args.server_bin.clone(),
        cli_bin: args.cli_bin.clone(),
        out_dir: args.out_dir.join("self-test"),
        toy: true,
        self_test: false,
        tamper,
    };
    std::fs::create_dir_all(args.out_dir.join("self-test")).map_err(|e| e.to_string())?;
    for name in WORKLOADS {
        let w = workload(name, true).expect("known workload");
        for trace in [false, true] {
            let out = run_workload(&toy(name, trace, false), &w)?;
            let expected: Vec<(&str, &str)> = if trace {
                replay::LAYER_METRICS.to_vec()
            } else {
                END_TO_END.to_vec()
            };
            let parsed = minaret_json::parse(&out.line()).map_err(|e| e.to_string())?;
            for (metric, unit) in expected {
                let entry = parsed
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .ok_or(format!("{name}: {metric} missing"))?;
                if entry.get("unit").and_then(Value::as_str) != Some(unit) {
                    return Err(format!("{name}: {metric} lacks unit {unit}"));
                }
                if !entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    return Err(format!("{name}: {metric} has no finite value"));
                }
            }
            if !out.correct || out.failed > 0 {
                return Err(format!(
                    "{name} (trace {trace}): {} of {} failed",
                    out.failed, out.attempted
                ));
            }
            eprintln!(
                "self-test: {name} trace={trace} ok ({} operations)",
                out.attempted
            );
        }
        let out = run_workload(&toy(name, false, true), &w)?;
        if out.correct || out.failed == 0 {
            return Err(format!(
                "{name}: a tampered reply was not counted as a failure"
            ));
        }
        eprintln!(
            "self-test: {name} tampered reply counted as {} failure(s)",
            out.failed
        );
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    if args.self_test {
        match self_test(&args) {
            Ok(()) => eprintln!("self-test: every workload ok"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let Some(w) = workload(&args.workload, args.toy) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {WORKLOADS:?}",
            args.workload
        );
        std::process::exit(2);
    };
    let started = Instant::now();
    match run_workload(&args, &w) {
        Ok(out) => {
            eprintln!(
                "perfbench: {} finished in {:.1} s",
                w.name,
                started.elapsed().as_secs_f64()
            );
            println!("{}", out.line());
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
