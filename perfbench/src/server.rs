//! The program under test in a child process.
//!
//! The benchmark binary re-executes itself as `serve`: the child binds a
//! [`TcpServer`] on an ephemeral loopback port, prints `listening <addr>`, then
//! answers control lines on stdin — `stats` prints one JSON line of net,
//! service and cache counters plus the child's peak resident set and the
//! median of its resident set sampled every 20 ms since the last `mark`;
//! `quit` (or end of stdin) shuts the server down gracefully. Peak memory and CPU therefore
//! belong to the server alone, not to the load generator.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use quhe_core::json::JsonValue;
use quhe_core::params::QuheConfig;
use quhe_serve::{ServiceConfig, TcpServer};

/// The solver configuration every run serves with: the catalogue batch
/// configuration (serial Stage-3 starts, so each solve holds one core).
pub fn solver_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: 5,
        max_stage3_iterations: 20,
        solver_threads: 1,
        ..QuheConfig::default()
    }
}

/// How often the child samples its resident set.
const RSS_SAMPLE_INTERVAL: Duration = Duration::from_millis(20);

/// A field of this process's `/proc/self/status` in KiB (`VmHWM:` is the
/// peak resident set, `VmRSS:` the current one), 0 where unavailable.
fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn median_kib(samples: &Mutex<Vec<u64>>) -> u64 {
    let mut sorted = samples.lock().expect("the sampler never panics").clone();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

fn stats_line(server: &TcpServer, rss_samples: &Mutex<Vec<u64>>) -> String {
    let net = server.stats();
    let service = server.service().stats();
    let cache = service.cache;
    JsonValue::object()
        .with("frames", JsonValue::from_usize(net.frames))
        .with("responses", JsonValue::from_usize(net.responses))
        .with("shed", JsonValue::from_usize(net.shed))
        .with(
            "rejected_frames",
            JsonValue::from_usize(net.rejected_frames),
        )
        .with(
            "max_queue_depth",
            JsonValue::from_usize(net.max_queue_depth),
        )
        .with("exact_hits", JsonValue::from_usize(service.exact_hits))
        .with("warm_hits", JsonValue::from_usize(service.warm_hits))
        .with(
            "warm_fallbacks",
            JsonValue::from_usize(service.warm_fallbacks),
        )
        .with("cold_solves", JsonValue::from_usize(service.cold_solves))
        .with("coalesced", JsonValue::from_usize(service.coalesced))
        .with("cache_exact_hits", JsonValue::from_u64(cache.exact_hits))
        .with(
            "cache_exact_misses",
            JsonValue::from_u64(cache.exact_misses),
        )
        .with("cache_anchor_hits", JsonValue::from_u64(cache.anchor_hits))
        .with(
            "cache_anchor_misses",
            JsonValue::from_u64(cache.anchor_misses),
        )
        .with("cache_evictions", JsonValue::from_u64(cache.evictions))
        .with("peak_rss_kib", JsonValue::from_u64(status_kib("VmHWM:")))
        .with(
            "rss_median_kib",
            JsonValue::from_u64(median_kib(rss_samples)),
        )
        .to_compact_string()
}

/// Entry point of the `serve` child.
pub fn serve_main() -> ExitCode {
    let service = Arc::new(ServiceConfig::new(solver_config()).build());
    let server = match TcpServer::bind(service, "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perfbench serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout().lock();
    if writeln!(out, "listening {}", server.local_addr())
        .and_then(|()| out.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    // The resident set is sampled in the background; `mark` restarts the
    // sample, and `stats` reports its median.
    let rss_samples = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                let rss = status_kib("VmRSS:");
                rss_samples.lock().expect("no sampler panic").push(rss);
                std::thread::sleep(RSS_SAMPLE_INTERVAL);
            }
        });
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            match line.trim() {
                "stats" => {
                    if writeln!(out, "{}", stats_line(&server, &rss_samples))
                        .and_then(|()| out.flush())
                        .is_err()
                    {
                        break;
                    }
                }
                "mark" => rss_samples.lock().expect("no sampler panic").clear(),
                "quit" => break,
                other => eprintln!("perfbench serve: unknown command {other:?}"),
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    server.shutdown();
    ExitCode::SUCCESS
}

/// A counters snapshot of the child server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// `NetStats::frames`.
    pub frames: u64,
    /// `NetStats::responses`.
    pub responses: u64,
    /// `NetStats::shed`.
    pub shed: u64,
    /// `NetStats::rejected_frames`.
    pub rejected_frames: u64,
    /// `NetStats::max_queue_depth` (high-water mark since bind).
    pub max_queue_depth: u64,
    /// `ServiceStats::exact_hits`.
    pub exact_hits: u64,
    /// `ServiceStats::warm_hits`.
    pub warm_hits: u64,
    /// `ServiceStats::warm_fallbacks`.
    pub warm_fallbacks: u64,
    /// `ServiceStats::cold_solves`.
    pub cold_solves: u64,
    /// `ServiceStats::coalesced`.
    pub coalesced: u64,
    /// `CacheStats::exact_hits`.
    pub cache_exact_hits: u64,
    /// `CacheStats::exact_misses`.
    pub cache_exact_misses: u64,
    /// `CacheStats::anchor_hits`.
    pub cache_anchor_hits: u64,
    /// `CacheStats::anchor_misses`.
    pub cache_anchor_misses: u64,
    /// `CacheStats::evictions`.
    pub cache_evictions: u64,
    /// Peak resident set of the server process, KiB.
    pub peak_rss_kib: u64,
    /// Median resident set of the server process since the last
    /// [`ServerProcess::mark`], KiB.
    pub rss_median_kib: u64,
}

impl ServerStats {
    fn parse(line: &str) -> Result<Self, String> {
        let value = JsonValue::parse(line).map_err(|e| format!("stats line: {e}"))?;
        let field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stats line lacks {key}"))
        };
        Ok(Self {
            frames: field("frames")?,
            responses: field("responses")?,
            shed: field("shed")?,
            rejected_frames: field("rejected_frames")?,
            max_queue_depth: field("max_queue_depth")?,
            exact_hits: field("exact_hits")?,
            warm_hits: field("warm_hits")?,
            warm_fallbacks: field("warm_fallbacks")?,
            cold_solves: field("cold_solves")?,
            coalesced: field("coalesced")?,
            cache_exact_hits: field("cache_exact_hits")?,
            cache_exact_misses: field("cache_exact_misses")?,
            cache_anchor_hits: field("cache_anchor_hits")?,
            cache_anchor_misses: field("cache_anchor_misses")?,
            cache_evictions: field("cache_evictions")?,
            peak_rss_kib: field("peak_rss_kib")?,
            rss_median_kib: field("rss_median_kib")?,
        })
    }

    /// Counter deltas from `before` to `self` (the monotonic counters only;
    /// the high-water mark and the memory figures keep `self`'s value).
    pub fn since(&self, before: &ServerStats) -> ServerStats {
        ServerStats {
            frames: self.frames - before.frames,
            responses: self.responses - before.responses,
            shed: self.shed - before.shed,
            rejected_frames: self.rejected_frames - before.rejected_frames,
            max_queue_depth: self.max_queue_depth,
            exact_hits: self.exact_hits - before.exact_hits,
            warm_hits: self.warm_hits - before.warm_hits,
            warm_fallbacks: self.warm_fallbacks - before.warm_fallbacks,
            cold_solves: self.cold_solves - before.cold_solves,
            coalesced: self.coalesced - before.coalesced,
            cache_exact_hits: self.cache_exact_hits - before.cache_exact_hits,
            cache_exact_misses: self.cache_exact_misses - before.cache_exact_misses,
            cache_anchor_hits: self.cache_anchor_hits - before.cache_anchor_hits,
            cache_anchor_misses: self.cache_anchor_misses - before.cache_anchor_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            peak_rss_kib: self.peak_rss_kib,
            rss_median_kib: self.rss_median_kib,
        }
    }
}

/// The parent's handle on a running `serve` child. Dropping it kills and
/// reaps the child, so no exit path leaves a server behind.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the child and waits until it listens.
    pub fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let (Some(stdin), Some(stdout)) = (stdin, stdout) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server pipes missing".to_string());
        };
        let mut server = Self {
            child,
            stdin: Some(stdin),
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = server.read_line()?;
        server.addr = line
            .strip_prefix("listening ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("unexpected server greeting {line:?}"))?;
        Ok(server)
    }

    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("reading from the server: {e}")),
        }
    }

    fn command(&mut self, command: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the server: {e}"))
    }

    /// Restarts the child's resident-set sample.
    pub fn mark(&mut self) -> Result<(), String> {
        self.command("mark")
    }

    /// A counters snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, String> {
        self.command("stats")?;
        let line = self.read_line()?;
        ServerStats::parse(line.trim())
    }

    /// Waits until every received frame has been answered (responses are
    /// counted just after their write, so a client can see its last reply
    /// first), for at most half a second, and returns that snapshot.
    pub fn quiesced_stats(&mut self) -> Result<ServerStats, String> {
        let mut stats = self.stats()?;
        for _ in 0..100 {
            if stats.responses >= stats.frames {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            stats = self.stats()?;
        }
        Ok(stats)
    }

    /// Shuts the server down and waits for the child to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.command("quit")?;
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
