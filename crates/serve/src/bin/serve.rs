//! The `retypd-serve` server binary.
//!
//! ```text
//! cargo run --release -p retypd-serve --bin serve -- --addr 127.0.0.1:7411 \
//!     --shards 4 --workers 1 --queue-depth 256 --cache-capacity 4096 \
//!     --read-timeout 30
//! ```
//!
//! Prints a human log line to stderr and the machine-readable
//! `RETYPD_SERVE_READY addr=… pid=… shards=…` banner to stdout once the
//! socket is bound and every shard is warm, then blocks until a `shutdown`
//! wire message drains it (the gateway and the process tests start this
//! in the background and read the banner instead of sleeping).
//!
//! The whole main lives in [`retypd_serve::launch`] so the gateway crate
//! can ship the identical server as its own `serve_backend` test binary.

fn main() {
    std::process::exit(retypd_serve::launch::serve_main(std::env::args().skip(1)));
}
