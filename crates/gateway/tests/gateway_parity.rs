//! Batch-reply parity: a batch through a 1-backend gateway answers with
//! the same frames `serve` sends for it directly, because both write it
//! with `wire::BatchReply`. Streaming: per-module errors unprefixed, and
//! `batch_done.lattice_fp` the built lattice's canonical fingerprint even
//! when the request's descriptor declares a redundant edge. Single-frame:
//! the same `error` bytes for the good/bad pair, and the same `solved`
//! frame for the good module alone. A lone `solve_module`, which the
//! gateway forwards without reconstructing: the same `solved` frame for
//! the good module and serve's own `error` bytes for the bad one.

use std::net::{SocketAddr, TcpStream};

use retypd_core::{Lattice, LatticeDescriptor};
use retypd_driver::ModuleJob;
use retypd_gateway::{server, BackendSpec, GatewayConfig};
use retypd_minic::codegen::compile;
use retypd_minic::genprog::{GenConfig, ProgramGenerator};
use retypd_serve::json::Json;
use retypd_serve::wire::{read_frame, write_frame};
use retypd_serve::{start as serve_start, Request, ServeConfig, WireModule};

/// The c_types descriptor plus one transitive edge `a ≤ c` implied by
/// `a ≤ b ≤ c`: the same lattice, described non-canonically.
fn redundant_c_types() -> LatticeDescriptor {
    let canon = LatticeDescriptor::c_types();
    let edges = canon.edges();
    let extra = edges
        .iter()
        .find_map(|(a, b)| {
            edges
                .iter()
                .filter(|(b2, _)| b2 == b)
                .map(|(_, c)| (a.clone(), c.clone()))
                .find(|e| !edges.contains(e))
        })
        .expect("c_types has a chain of two edges");
    let mut with_extra = edges.to_vec();
    with_extra.push(extra);
    LatticeDescriptor::new("c_types_redundant", canon.elements().to_vec(), with_extra)
        .expect("descriptor is well-formed")
}

/// One generated module and one whose constraint text does not parse.
fn modules() -> Vec<WireModule> {
    let module = ProgramGenerator::new(GenConfig {
        seed: 41,
        functions: 6,
        ..GenConfig::default()
    })
    .generate();
    let (mir, _) = compile(&module).expect("generated module compiles");
    let good = WireModule::from_job(&ModuleJob {
        name: "good".into(),
        program: retypd_congen::generate(&mir),
    });
    let mut bad = good.clone();
    bad.name = "bad".into();
    bad.procs[0].constraints = ")(".into();
    vec![good, bad]
}

/// Zeroes every nanosecond field (the frames' only clock readings).
fn mask_ns(j: Json) -> Json {
    match j {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| {
                    let v = if k.ends_with("_ns") { Json::u64(0) } else { mask_ns(v) };
                    (k, v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(mask_ns).collect()),
        other => other,
    }
}

/// Sends `request` and collects the reply frames up to `batch_done`,
/// masked, with the `report` frames in index order (they arrive in
/// completion order, which neither server fixes).
fn streamed_frames(addr: SocketAddr, request: &[u8]) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write_frame(&mut conn, request).expect("send batch");
    let mut reports = Vec::new();
    loop {
        let frame = read_frame(&mut conn)
            .expect("read frame")
            .expect("stream ends with batch_done");
        let json = Json::parse(std::str::from_utf8(&frame).expect("utf-8 frame"))
            .expect("frame is JSON");
        let kind = json.get("kind").and_then(Json::as_str).map(str::to_owned);
        match kind.as_deref() {
            Some("report") => {
                let index = json.get("index").and_then(Json::as_usize).expect("index");
                reports.push((index, mask_ns(json).encode()));
            }
            Some("batch_done") => {
                reports.sort();
                let mut frames: Vec<String> = reports.into_iter().map(|(_, f)| f).collect();
                frames.push(mask_ns(json).encode());
                return frames;
            }
            other => panic!("unexpected frame kind {other:?}: {}", json.encode()),
        }
    }
}

/// Sends `request` and returns its one reply frame, masked.
fn single_frame(addr: SocketAddr, request: &[u8]) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write_frame(&mut conn, request).expect("send batch");
    let frame = read_frame(&mut conn).expect("read frame").expect("one reply");
    let json = Json::parse(std::str::from_utf8(&frame).expect("utf-8 frame")).expect("JSON");
    mask_ns(json).encode()
}

#[test]
fn streaming_batch_frames_match_serve() {
    let lattice = redundant_c_types();
    let canonical_fp = Lattice::c_types().fingerprint();
    assert_ne!(lattice.fingerprint(), canonical_fp, "the descriptor is non-canonical");
    let request = Request::SolveBatch {
        modules: modules(),
        lattice: Some(lattice),
        stream: true,
        trace_id: None,
    }
    .encode();

    let config = || ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let direct = serve_start(config()).expect("bind serve");
    let backend = serve_start(config()).expect("bind backend");
    let gw = server::start(
        GatewayConfig::default(),
        vec![BackendSpec::External {
            addr: backend.addr(),
        }],
    )
    .expect("gateway starts");

    let want = streamed_frames(direct.addr(), &request);
    let got = streamed_frames(gw.addr(), &request);
    assert_eq!(got.len(), want.len(), "frame count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "frame {i} differs");
    }

    // What both now agree on: one report, one unprefixed parse error,
    // and the canonical lattice fingerprint.
    let done = Json::parse(want.last().expect("batch_done")).expect("JSON");
    let errors = done.get("errors").and_then(Json::as_arr).expect("errors");
    assert_eq!(errors.len(), 1, "{}", done.encode());
    assert!(!errors[0].as_str().expect("string").starts_with("module "));
    assert_eq!(done.get("lattice_fp").and_then(Json::as_u64), Some(canonical_fp));

    // The same pair as a single-frame batch: one `error` frame, the same
    // bytes from both.
    let pair = modules();
    let single = |modules: Vec<WireModule>| Request::SolveBatch {
        modules,
        lattice: None,
        stream: false,
        trace_id: None,
    }
    .encode();
    let want = single_frame(direct.addr(), &single(pair.clone()));
    assert_eq!(single_frame(gw.addr(), &single(pair.clone())), want);
    let reply = Json::parse(&want).expect("JSON");
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("error"), "{want}");
    // The good module alone: the same `solved` frame.
    let good = single(pair[..1].to_vec());
    let want = single_frame(direct.addr(), &good);
    assert_eq!(single_frame(gw.addr(), &good), want);
    assert!(want.starts_with(r#"{"kind":"solved","#), "{want}");

    gw.shutdown();
    direct.shutdown();
    backend.shutdown();
}

#[test]
fn lone_module_frames_match_serve() {
    let config = || ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let direct = serve_start(config()).expect("bind serve");
    let backend = serve_start(config()).expect("bind backend");
    let gw = server::start(
        GatewayConfig::default(),
        vec![BackendSpec::External {
            addr: backend.addr(),
        }],
    )
    .expect("gateway starts");

    let [good, bad]: [WireModule; 2] = modules().try_into().expect("two modules");
    let want_good = single_frame(direct.addr(), &Request::solve_module(good.clone()).encode());
    let want_bad = single_frame(direct.addr(), &Request::solve_module(bad.clone()).encode());
    assert!(want_good.starts_with(r#"{"kind":"solved","#), "{want_good}");
    assert!(want_bad.starts_with(r#"{"kind":"error","#), "{want_bad}");
    assert_eq!(
        single_frame(gw.addr(), &Request::solve_module(good).encode()),
        want_good
    );
    assert_eq!(
        single_frame(gw.addr(), &Request::solve_module(bad).encode()),
        want_bad,
        "the bad module's reply is serve's own error"
    );

    gw.shutdown();
    direct.shutdown();
    backend.shutdown();
}
