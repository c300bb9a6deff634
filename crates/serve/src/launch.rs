//! The `serve` binary's main, as a library function.
//!
//! The gateway supervises real `serve` *processes*, and its integration
//! tests need to spawn the same binary — but Cargo only exposes
//! `CARGO_BIN_EXE_<name>` to the defining package's own tests. Sharing the
//! whole binary main here lets `crates/gateway` ship a one-line
//! `serve_backend` bin that is byte-for-byte the same server, so gateway
//! tests (and the gateway's sibling-executable default) always have a
//! spawnable backend.
//!
//! ## Readiness banner
//!
//! Once the socket is bound and every shard has replayed its store, the
//! process prints exactly one line to **stdout** (stderr keeps the
//! human-oriented log):
//!
//! ```text
//! RETYPD_SERVE_READY addr=127.0.0.1:40613 pid=12345 shards=2
//! ```
//!
//! The line is machine-readable ([`parse_ready_banner`]) and carries the
//! *bound* address, so `--addr 127.0.0.1:0` (ephemeral port) works end to
//! end: a supervisor or CI script reads the banner instead of guessing
//! ports or sleeping. `--banner-file PATH` additionally writes the same
//! line to a file (created atomically via a temp-file rename), for
//! harnesses that capture stdout elsewhere.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use crate::{start, ServeConfig};

/// The sentinel that starts a readiness banner line.
pub const READY_SENTINEL: &str = "RETYPD_SERVE_READY";

/// Renders the one-line readiness banner.
pub fn ready_banner(addr: SocketAddr, pid: u32, shards: usize) -> String {
    format!("{READY_SENTINEL} addr={addr} pid={pid} shards={shards}")
}

/// Parses a readiness banner line into `(addr, pid, shards)`. Tolerates
/// surrounding whitespace and unknown trailing `key=value` fields (so the
/// banner can grow), but refuses anything not led by [`READY_SENTINEL`]
/// or missing one of the three required fields.
pub fn parse_ready_banner(line: &str) -> Option<(SocketAddr, u32, usize)> {
    let mut parts = line.trim().split_whitespace();
    if parts.next() != Some(READY_SENTINEL) {
        return None;
    }
    let (mut addr, mut pid, mut shards) = (None, None, None);
    for field in parts {
        let (key, value) = field.split_once('=')?;
        match key {
            "addr" => addr = value.parse::<SocketAddr>().ok(),
            "pid" => pid = value.parse::<u32>().ok(),
            "shards" => shards = value.parse::<usize>().ok(),
            _ => {} // future fields
        }
    }
    Some((addr?, pid?, shards?))
}

/// Writes the banner to `path` via temp-file + rename, so a reader never
/// observes a half-written line. The gateway binary writes its own
/// banner file with it too.
///
/// # Errors
///
/// Fails when the temp file cannot be written or renamed over `path`.
pub fn write_banner_file(path: &Path, banner: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{banner}\n"))?;
    std::fs::rename(&tmp, path)
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--shards N] [--workers N] \
         [--queue-depth N] [--cache-capacity N|unbounded] [--read-timeout SECS|0] \
         [--max-frames-per-conn N|0] [--max-bytes-per-conn N|0] [--persist-dir PATH] \
         [--solve-delay-ms N] [--banner-file FILE] \
         [--metrics-text FILE] [--trace-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_num(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    match args.next().as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("{flag} expects a non-negative integer");
            usage();
        }
    }
}

/// The full `serve` binary main: parses `args` (without the program
/// name), runs the server to drain, and returns the process exit code.
pub fn serve_main(args: impl IntoIterator<Item = String>) -> i32 {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7411".into(),
        ..ServeConfig::default()
    };
    let mut metrics_text: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut banner_file: Option<PathBuf> = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => config.addr = args.next().unwrap_or_else(|| usage()),
            "--shards" => config.shards = parse_num(&mut args, "--shards").max(1),
            "--workers" => {
                config.workers_per_shard = parse_num(&mut args, "--workers").max(1)
            }
            "--queue-depth" => {
                config.queue_depth = parse_num(&mut args, "--queue-depth").max(1)
            }
            "--cache-capacity" => {
                let v = args.next().unwrap_or_else(|| usage());
                config.cache_capacity = if v == "unbounded" {
                    None
                } else {
                    match v.parse() {
                        Ok(n) => Some(n),
                        Err(_) => usage(),
                    }
                };
            }
            "--read-timeout" => {
                // 0 disables the timeout (a connection may then idle
                // forever between requests; drains still proceed).
                let secs = parse_num(&mut args, "--read-timeout");
                config.read_timeout = if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs as u64))
                };
            }
            "--max-frames-per-conn" => {
                // 0 disables the per-connection frame budget.
                let n = parse_num(&mut args, "--max-frames-per-conn");
                config.max_frames_per_conn = if n == 0 { None } else { Some(n as u64) };
            }
            "--max-bytes-per-conn" => {
                // 0 disables the per-connection byte budget.
                let n = parse_num(&mut args, "--max-bytes-per-conn");
                config.max_bytes_per_conn = if n == 0 { None } else { Some(n as u64) };
            }
            "--persist-dir" => {
                // Each shard keeps a `shard-<N>.store` scheme log here;
                // relaunching with the same dir (and shard count) starts
                // every shard with a warm cache.
                config.persist_dir =
                    Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--solve-delay-ms" => {
                // Chaos seam: a deterministic pre-solve stall per job, for
                // driving tail-latency machinery (gateway hedging) in
                // tests and benches. 0 means none.
                let ms = parse_num(&mut args, "--solve-delay-ms");
                config.solve_delay = if ms == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_millis(ms as u64))
                };
            }
            "--banner-file" => {
                banner_file = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--metrics-text" => {
                metrics_text = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            _ => usage(),
        }
    }
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create trace dir {}: {e}", dir.display());
            return 1;
        }
        // Spans stay a single relaxed atomic load when this flag is
        // absent; flipping it here is the only place the binary pays for
        // tracing.
        retypd_telemetry::set_spans_enabled(true);
    }
    match start(config.clone()) {
        Ok(handle) => {
            eprintln!(
                "retypd-serve listening on {} ({} shards, {} workers/shard, queue depth {}, \
                 cache capacity {:?}, read timeout {:?}, persist dir {:?})",
                handle.addr(),
                config.shards,
                config.workers_per_shard,
                config.queue_depth,
                config.cache_capacity,
                config.read_timeout,
                config.persist_dir
            );
            // The machine-readable readiness line. `start` returned, so
            // every shard has already replayed its store: a supervisor
            // that sees this line may immediately send traffic (or a
            // stats probe asserting the replay gauges).
            let banner = ready_banner(handle.addr(), std::process::id(), config.shards);
            {
                use std::io::Write as _;
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "{banner}");
                let _ = out.flush();
            }
            if let Some(path) = &banner_file {
                if let Err(e) = write_banner_file(path, &banner) {
                    eprintln!("failed to write banner file {}: {e}", path.display());
                }
            }
            // `join` consumes the handle; the observer is what lets us
            // render one final exposition after the drain.
            let observer = handle.metrics_observer();
            // `join` returns only after the drain joined every connection
            // handler, so the `shutting_down` ack and all final response
            // frames are already handed to the kernel — no exit dwell.
            handle.join();
            if let Some(path) = &metrics_text {
                match std::fs::write(path, observer.text()) {
                    Ok(()) => eprintln!("metrics exposition written to {}", path.display()),
                    Err(e) => eprintln!("failed to write {}: {e}", path.display()),
                }
            }
            if let Some(dir) = &trace_dir {
                let (events, dropped) = retypd_telemetry::drain_spans();
                let path = dir.join("serve-trace.jsonl");
                match std::fs::write(&path, retypd_telemetry::chrome_trace_json(&events)) {
                    Ok(()) => eprintln!(
                        "trace written to {} ({} spans, {dropped} dropped)",
                        path.display(),
                        events.len()
                    ),
                    Err(e) => eprintln!("failed to write {}: {e}", path.display()),
                }
            }
            eprintln!("retypd-serve drained, exiting");
            0
        }
        Err(e) => {
            eprintln!("failed to bind {}: {e}", config.addr);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_round_trips_and_tolerates_growth() {
        // retypd-lint: allow(no-fixed-ports) the banner is parsed, never bound
        let addr: SocketAddr = "127.0.0.1:40613".parse().unwrap();
        let line = ready_banner(addr, 12345, 4);
        assert_eq!(parse_ready_banner(&line), Some((addr, 12345, 4)));
        // Whitespace and unknown future fields are fine.
        let grown = format!("  {line} epoch=7\n");
        assert_eq!(parse_ready_banner(&grown), Some((addr, 12345, 4)));
        // Wrong sentinel, missing fields, or garbage values are not.
        assert_eq!(parse_ready_banner("READY addr=1.2.3.4:5 pid=1 shards=1"), None);
        assert_eq!(
            parse_ready_banner("RETYPD_SERVE_READY addr=127.0.0.1:1 pid=1"),
            None
        );
        assert_eq!(
            parse_ready_banner("RETYPD_SERVE_READY addr=nope pid=1 shards=1"),
            None
        );
        assert_eq!(parse_ready_banner(""), None);
    }
}
