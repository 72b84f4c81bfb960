//! A `tunad` child process: spawned on an ephemeral loopback port,
//! timed until it serves `/healthz`, read through `/proc`, and always
//! killed and reaped.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};

use tuna_serve::http::request_bytes;

use crate::client::{TcpConn, Transport};
use crate::clock::now;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every Linux ABI).
const CLK_TCK: f64 = 100.0;

/// The deterministic `/metrics` counters a run records, by wire name.
pub const SCRAPED: [(&str, &str); 8] = [
    ("scrape.cells_completed", "tuna_cells_completed_total"),
    ("scrape.cells_assigned", "tuna_cells_assigned_total"),
    ("scrape.pipeline_rounds", "tuna_pipeline_rounds_total"),
    ("scrape.pipeline_unstable", "tuna_pipeline_unstable_total"),
    (
        "scrape.shed_503_capacity",
        "tuna_serve_shed_total{class=\"503-capacity\"}",
    ),
    (
        "scrape.shed_429_depth",
        "tuna_serve_shed_total{class=\"429-depth\"}",
    ),
    (
        "scrape.shed_429_bytes",
        "tuna_serve_shed_total{class=\"429-bytes\"}",
    ),
    (
        "scrape.shed_408_timeout",
        "tuna_serve_shed_total{class=\"408-timeout\"}",
    ),
];

/// A running `tunad`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Read only up to the "listening" line; after it `tunad` writes to
    /// stderr only on errors.
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

/// Flushes the file systems (`sync`), so that writes, renames and
/// discards an earlier step left pending are not committed inside the
/// next timed region.
pub fn settle() -> Result<(), String> {
    match Command::new("sync").status() {
        Ok(status) if status.success() => Ok(()),
        other => Err(format!("sync failed: {other:?}")),
    }
}

impl Daemon {
    /// Spawns `tunad --workers 2` over `data` and waits until
    /// `/healthz` answers 200; returns the daemon and that wait in
    /// seconds. The file systems are settled first.
    pub fn start(
        tunad: &Path,
        data: &Path,
        tenants: Option<&Path>,
    ) -> Result<(Daemon, f64), String> {
        settle()?;
        let t0 = now();
        let mut cmd = Command::new(tunad);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2", "--data"])
            .arg(data)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(t) = tenants {
            cmd.arg("--tenants").arg(t);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tunad.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // Reaped on every path from here on.
        let mut daemon = Daemon {
            child,
            stderr,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            .stderr
            .read_line(&mut line)
            .map_err(|e| format!("tunad stderr: {e}"))?;
        daemon.addr = line
            .strip_prefix("tunad: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("tunad did not start: {}", daemon.drain(line.trim())))?;
        match TcpConn::new(daemon.addr).call(&request_bytes("GET", "/healthz", "")) {
            Ok((200, _)) => Ok((daemon, t0.elapsed().as_secs_f64())),
            other => Err(format!("/healthz answered {other:?}")),
        }
    }

    /// Everything the daemon wrote to stderr after `first`.
    fn drain(&mut self, first: &str) -> String {
        let _ = self.child.kill();
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        format!("{first} {}", rest.trim())
    }

    /// The daemon's CPU time so far (user + system), seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("/proc stat: {e}"))?;
        // Fields after the parenthesised command name start at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / CLK_TCK)
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok(tick(11)? + tick(12)?)
    }

    /// CPU time of the daemon's main thread so far, seconds, to the
    /// nanosecond (`/proc/<pid>/task/<pid>/schedstat`). `tunad` serves
    /// every connection from its main thread; the cells run on worker
    /// threads. Time the host steals from the virtual CPU is not
    /// counted.
    pub fn serve_cpu_s(&self) -> Result<f64, String> {
        let pid = self.child.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/schedstat"))
            .map_err(|e| format!("/proc schedstat: {e}"))?;
        stat.split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .map(|ns| ns as f64 / 1e9)
            .ok_or_else(|| "malformed /proc schedstat".to_string())
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("/proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Scrapes `GET /metrics` for the [`SCRAPED`] counters (a counter
    /// not yet registered reads 0).
    pub fn scrape(&self) -> Result<BTreeMap<&'static str, u64>, String> {
        let (status, text) = TcpConn::new(self.addr).call(&request_bytes("GET", "/metrics", ""))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let values: BTreeMap<&str, u64> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
            .collect();
        Ok(SCRAPED
            .iter()
            .map(|&(name, wire)| (name, values.get(wire).copied().unwrap_or(0)))
            .collect())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
