//! The texts a module's structural check refuses it with, pinned byte for
//! byte: an unknown callee, an external subject that does not parse or
//! carries labels, and a global that does not parse or carries labels.
//! Each is checked where it is made, `WireModule::structure`, and where a
//! client reads it: serve's single-frame batch refused whole, serve's
//! streaming batch with that module's `error`, and both again through a
//! gateway, which must answer with serve's bytes.

use std::net::{SocketAddr, TcpStream};

use retypd_gateway::{server, BackendSpec, GatewayConfig};
use retypd_serve::wire::{read_frame, write_frame, WireCallsite, WireError, WireProc, WireScheme};
use retypd_serve::{start as serve_start, Request, Response, ServeConfig, WireModule};

/// A one-procedure module that solves.
fn good() -> WireModule {
    WireModule {
        name: "good".into(),
        procs: vec![WireProc {
            name: "f".into(),
            constraints: "f.in_stack0 <= int".into(),
            callsites: vec![],
        }],
        externals: vec![],
        globals: vec![],
    }
}

/// `good` with one structural fault per case, beside the refusal text
/// `WireModule::structure` gives for it.
fn refusals() -> Vec<(WireModule, &'static str)> {
    let with = |edit: &dyn Fn(&mut WireModule)| {
        let mut m = good();
        m.name = "bad".into();
        edit(&mut m);
        m
    };
    let external = |subject: &str| WireScheme {
        name: "ext".into(),
        subject: subject.into(),
        existentials: vec![],
        constraints: String::new(),
    };
    vec![
        (
            with(&|m| {
                m.procs[0].callsites.push(WireCallsite {
                    external: false,
                    callee: "nope".into(),
                    tag: "c1".into(),
                })
            }),
            "f: unknown callee nope",
        ),
        (
            with(&|m| m.externals.push(external(".ext"))),
            r#"external ext: empty base variable in ".ext""#,
        ),
        (
            with(&|m| m.externals.push(external("ext.in_stack0"))),
            "external ext: subject has labels",
        ),
        (
            with(&|m| m.globals.push("g.nolabel".into())),
            r#"global g.nolabel: unknown label "nolabel" in "g.nolabel""#,
        ),
        (
            with(&|m| m.globals.push("g.load".into())),
            "global g.load has labels",
        ),
    ]
}

/// The refusal `structure` gives `module`, as serve words it on the wire.
fn structure_refusal(module: &WireModule) -> String {
    let refused = module.structure().expect_err("the structure is refused");
    WireError::Protocol(refused).to_string()
}

/// Sends `request` and decodes reply frames up to the first that is not
/// a streamed `report`.
fn replies(addr: SocketAddr, request: &Request) -> Vec<Response> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write_frame(&mut conn, &request.encode()).expect("send");
    let mut frames = Vec::new();
    loop {
        let frame = read_frame(&mut conn).expect("read").expect("a reply");
        let reply = Response::decode(&frame).expect("the reply decodes");
        let more = matches!(reply, Response::Report { .. });
        frames.push(reply);
        if !more {
            return frames;
        }
    }
}

fn batch(bad: &WireModule, stream: bool) -> Request {
    Request::SolveBatch {
        modules: vec![good(), bad.clone()],
        lattice: None,
        stream,
        trace_id: None,
    }
}

/// A single-frame batch is refused whole with the text; a streaming one
/// solves the good module and gives the bad one the text as its error.
fn assert_refuses(addr: SocketAddr, bad: &WireModule, text: &str) {
    match replies(addr, &batch(bad, false)).as_slice() {
        [Response::Error(e)] => assert_eq!(e, text),
        other => panic!("single-frame batch: {other:?}"),
    }
    let mut frames = replies(addr, &batch(bad, true));
    let Some(Response::BatchDone(done)) = frames.pop() else {
        panic!("the stream ends with batch_done: {frames:?}");
    };
    assert_eq!(done.errors, [text]);
    assert_eq!(done.delivered, 1);
    frames.sort_by_key(|r| match r {
        Response::Report { index, .. } => *index,
        other => panic!("streamed {other:?}"),
    });
    match frames.as_slice() {
        [Response::Report {
            index: 0,
            result: Ok(report),
        }, Response::Report {
            index: 1,
            result: Err(e),
        }] => {
            assert_eq!(report.name, "good");
            assert_eq!(e, text);
        }
        other => panic!("streamed reports: {other:?}"),
    }
}

#[test]
fn structural_refusals_are_pinned() {
    let cases: Vec<(WireModule, String)> = refusals()
        .into_iter()
        .map(|(module, text)| (module, format!("protocol error: {text}")))
        .collect();
    for (module, wired) in &cases {
        assert_eq!(&structure_refusal(module), wired);
    }
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
    for (module, wired) in &cases {
        assert_refuses(direct.addr(), module, wired);
        assert_refuses(gw.addr(), module, wired);
    }
    gw.shutdown();
    direct.shutdown();
    backend.shutdown();
}
