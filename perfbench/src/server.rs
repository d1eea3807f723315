//! The `minaret-server` process under test: spawn, wait for health,
//! read its CPU time and peak memory from `/proc`, stop it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Conn;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

/// How long a boot may take before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
    pub addr: SocketAddr,
    /// From spawn to the first `200` from `/health`.
    pub setup: Duration,
}

impl ServerProc {
    /// Spawns `bin` with `args` plus `--addr 127.0.0.1:0`, learns the
    /// bound address from the startup banner, and polls `/health`.
    pub fn boot(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the banner, reports the address, then drains stderr so
        // the server can never block on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    if let (Some(tx), Ok(addr)) = (tx.take(), rest.trim().parse::<SocketAddr>()) {
                        let _ = tx.send(addr);
                    }
                }
                lines.push(line);
            }
            lines
        });
        let mut proc = ServerProc {
            child,
            stderr: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        proc.addr = match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => addr,
            Err(_) => {
                let log = proc.stop().join("\n");
                return Err(format!("server did not start:\n{log}"));
            }
        };
        let mut conn = Conn::new(proc.addr, Duration::from_secs(5));
        let health = Conn::encode("GET", "/health", b"");
        loop {
            if matches!(conn.send(&health), Ok(r) if r.status == 200) {
                break;
            }
            if spawned.elapsed() > BOOT_TIMEOUT {
                return Err("server never answered /health with 200".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        proc.setup = spawned.elapsed();
        Ok(proc)
    }

    /// User plus system CPU time the process has used so far.
    pub fn cpu_time(&self) -> Duration {
        cpu_time_of(&self.child.id().to_string())
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Kills the process, waits for it, and returns its stderr lines.
    pub fn stop(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// User plus system CPU time of process `pid` (`"self"` for this one),
/// dead threads included, from `/proc/<pid>/stat`.
pub fn cpu_time_of(pid: &str) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // utime and stime are the 14th and 15th fields; count after the
    // parenthesised command name, which may itself contain spaces.
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND)
}
