//! `gateway` — front a fleet of `serve` backends with one address.
//!
//! ```text
//! gateway [--addr 127.0.0.1:7420] [--backends 3] [--persist-dir DIR]
//!         [--backend-cmd PATH] [--backend-arg ARG]...
//!         [--external ADDR]...
//!         [--hedge-after-ms 0] [--health-interval-ms 250]
//!         [--retry-budget 8] [--banner-file FILE]
//! ```
//!
//! Spawns `--backends` copies of the sibling `serve_backend` binary
//! (override with `--backend-cmd`), each on an ephemeral port with its
//! own `--persist-dir DIR/slot-N` store, supervises them, and serves
//! the ordinary wire protocol on `--addr`. `--external` routes to
//! already-running servers instead (repeatable; mixes with spawned).
//!
//! On readiness the gateway prints one machine-readable line on stdout:
//!
//! ```text
//! RETYPD_GATEWAY_READY addr=127.0.0.1:7420 pid=4242 backends=3
//! ```
//!
//! plus one `RETYPD_GATEWAY_BACKEND slot=… addr=… pid=…` line per
//! backend (re-echoed on restart), so scripts can find both the bound
//! front-end port and the child pids to, say, `kill -9` one mid-run.

use std::path::PathBuf;
use std::time::Duration;

use retypd_gateway::{server, BackendSpec, GatewayConfig};

fn main() {
    std::process::exit(run(std::env::args().skip(1)));
}

fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let mut config = GatewayConfig {
        addr: "127.0.0.1:7420".into(),
        echo: true,
        ..GatewayConfig::default()
    };
    let mut backends = 0usize;
    let mut backend_cmd: Option<PathBuf> = None;
    let mut backend_args: Vec<String> = Vec::new();
    let mut externals: Vec<std::net::SocketAddr> = Vec::new();
    let mut persist_dir: Option<PathBuf> = None;
    let mut banner_file: Option<PathBuf> = None;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--backends" => backends = parse(&value("--backends"), "--backends"),
            "--backend-cmd" => backend_cmd = Some(PathBuf::from(value("--backend-cmd"))),
            "--backend-arg" => backend_args.push(value("--backend-arg")),
            "--external" => externals.push(
                value("--external")
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--external: {e}"))),
            ),
            "--persist-dir" => persist_dir = Some(PathBuf::from(value("--persist-dir"))),
            "--hedge-after-ms" => {
                let ms: u64 = parse(&value("--hedge-after-ms"), "--hedge-after-ms");
                config.hedge_after = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--health-interval-ms" => {
                config.health_interval =
                    Duration::from_millis(parse(&value("--health-interval-ms"), "--health-interval-ms"));
            }
            "--retry-budget" => {
                config.retry_budget = parse(&value("--retry-budget"), "--retry-budget");
            }
            "--banner-file" => banner_file = Some(PathBuf::from(value("--banner-file"))),
            "--help" | "-h" => {
                eprintln!("see module docs: gateway --addr ... --backends N ...");
                return 0;
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if backends == 0 && externals.is_empty() {
        backends = 3;
    }

    let mut specs: Vec<BackendSpec> = Vec::new();
    for slot in 0..backends {
        specs.push(BackendSpec::Spawn {
            program: backend_cmd.clone().unwrap_or_else(default_backend_cmd),
            args: backend_args.clone(),
            persist_dir: persist_dir.as_ref().map(|d| d.join(format!("slot-{slot}"))),
        });
    }
    for addr in externals {
        specs.push(BackendSpec::External { addr });
    }

    let handle = match server::start(config, specs) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gateway: {e}");
            return 1;
        }
    };
    let banner = format!(
        "RETYPD_GATEWAY_READY addr={} pid={} backends={}",
        handle.addr(),
        std::process::id(),
        backends
    );
    println!("{banner}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if let Some(path) = banner_file {
        if retypd_serve::launch::write_banner_file(&path, &banner).is_err() {
            eprintln!("gateway: could not write banner file {}", path.display());
        }
    }
    handle.join();
    0
}

/// The sibling `serve_backend` executable, next to this binary.
fn default_backend_cmd() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("serve_backend")))
        .unwrap_or_else(|| PathBuf::from("serve_backend"))
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: bad value {s:?}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("gateway: {msg}");
    std::process::exit(2);
}
