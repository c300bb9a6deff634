//! The gateway's two socket sides over real connections: its front door
//! (the shared connection layer: drain with an idle client attached, the
//! `error` reply to an oversized frame) and its pooled backend sockets
//! (a socket the backend closed while idle is never reused). Read-timeout
//! and budget behaviour belong to the connection layer and are tested
//! once, in `retypd_serve::conn`.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use retypd_core::Program;
use retypd_driver::ModuleJob;
use retypd_gateway::{server, BackendSpec, GatewayConfig, GatewayHandle};
use retypd_serve::wire::{read_frame, MAX_FRAME_BYTES};
use retypd_serve::{start as serve_start, Client, Response, ServeConfig, ServerHandle};

fn backend(read_timeout: Duration) -> ServerHandle {
    serve_start(ServeConfig {
        shards: 1,
        read_timeout: Some(read_timeout),
        ..ServeConfig::default()
    })
    .expect("bind backend")
}

fn gateway(backend: &ServerHandle, health_interval: Duration) -> GatewayHandle {
    server::start(
        GatewayConfig {
            health_interval,
            ..GatewayConfig::default()
        },
        vec![BackendSpec::External {
            addr: backend.addr(),
        }],
    )
    .expect("gateway starts")
}

/// Runs `f` on a helper thread and fails the test (instead of hanging
/// it) if `f` has not returned within `limit`. Returns the time taken.
fn within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) -> Duration {
    let (done, finished) = retypd_core::sync::mpsc::channel();
    let started = Instant::now();
    let worker = retypd_core::sync::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(limit).is_ok(),
        "{what} still running after {limit:?}"
    );
    let took = started.elapsed();
    worker.join().expect("worker thread");
    took
}

fn counter(gw: &GatewayHandle, name: &str) -> u64 {
    gw.metrics_snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn shutdown_with_an_idle_client_attached_takes_about_one_poll_tick() {
    let b = backend(Duration::from_secs(30));
    let gw = gateway(&b, Duration::from_millis(50));
    let mut client = Client::connect(gw.addr()).expect("connect");
    client.stats().expect("stats through the gateway");
    // The client stays connected and silent: its handler sits in a
    // polled read and must notice the drain within a tick.
    let took = within(Duration::from_secs(5), "gateway shutdown", move || {
        gw.shutdown()
    });
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
    drop(client);
    b.shutdown();
}

#[test]
fn an_oversized_frame_gets_an_error_reply() {
    let b = backend(Duration::from_secs(30));
    let gw = gateway(&b, Duration::from_millis(50));
    let mut s = TcpStream::connect(gw.addr()).expect("connect");
    s.write_all(&((MAX_FRAME_BYTES + 1) as u32).to_be_bytes())
        .expect("announce");
    let reply = read_frame(&mut s)
        .expect("read")
        .expect("a reply, not a close");
    match Response::decode(&reply).expect("decodes") {
        Response::Error(m) => assert!(m.contains("over cap"), "{m}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    within(Duration::from_secs(5), "gateway shutdown", move || {
        gw.shutdown()
    });
    b.shutdown();
}

#[test]
fn pooled_sockets_the_backend_timed_out_are_not_reused() {
    // The backend closes a connection idle for 300 ms and leaves a "read
    // timed out" frame on it. The health sweep is slow, so only the
    // gateway's pool can notice.
    let b = backend(Duration::from_millis(300));
    let gw = gateway(&b, Duration::from_secs(5));
    let jobs: Vec<ModuleJob> = (0..4)
        .map(|i| ModuleJob {
            name: format!("m{i}"),
            program: Program::new(),
        })
        .collect();
    let mut client = Client::connect(gw.addr()).expect("connect");
    client.solve_batch(&jobs).expect("first batch");
    retypd_core::sync::thread::sleep(Duration::from_millis(800));
    assert_eq!(
        client.solve_batch(&jobs).expect("batch after idle").len(),
        4
    );
    client.solve_module(&jobs[0]).expect("solve after idle");
    assert_eq!(
        counter(&gw, "gateway.evicted"),
        0,
        "a healthy backend was evicted"
    );
    assert_eq!(counter(&gw, "gateway.reroutes"), 0);
    within(Duration::from_secs(10), "gateway shutdown", move || {
        gw.shutdown()
    });
    b.shutdown();
}
