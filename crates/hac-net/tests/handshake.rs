//! The one-version handshake, seen from both ends of the socket.
//!
//! * A peer that refuses our version fails the request at once: no
//!   retry, no older version offered, and the error names both versions.
//! * The server needs no handshake to pick a codec: a `Search` sent
//!   before any `Ping` is answered compact-coded, like every response.
//! * A traced call on a fresh connection carries its trace context on the
//!   first request after the single `Ping`.

use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hac_core::{RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::ContentExpr;
use hac_net::wire::{self, DEFAULT_MAX_FRAME_LEN};
use hac_net::{
    ClientConfig, HacServer, NetRemote, Request, RequestBody, Response, ResponseBody, ServerConfig,
    WireError, PROTOCOL_VERSION,
};
use hac_remote::WebSearchSim;

/// A scripted HACN peer: decodes every request, records it, and answers
/// with `answer(body)` compact-coded. One thread per connection.
struct FakePeer {
    addr: std::net::SocketAddr,
    seen: Arc<Mutex<Vec<Request>>>,
}

impl FakePeer {
    fn spawn(answer: fn(&RequestBody) -> ResponseBody) -> FakePeer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        // Detached: the accept loop lives until the test process exits.
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    while let Ok(bytes) = wire::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
                        let req = wire::decode_request(&bytes).expect("client sent a bad frame");
                        let resp = Response::new(req.id, answer(&req.body));
                        log.lock().unwrap().push(req);
                        let payload = wire::encode_response_compact(&resp);
                        if wire::write_frame(&mut stream, &payload).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        FakePeer { addr, seen }
    }

    fn seen(&self) -> Vec<Request> {
        self.seen.lock().unwrap().clone()
    }
}

fn client(ns: &str, addr: &str, pipeline_depth: usize) -> NetRemote {
    let mut config = ClientConfig {
        pipeline_depth,
        ..ClientConfig::default()
    };
    config.retry.max_attempts = 3;
    config.retry.base_delay = Duration::from_millis(2);
    config.retry.request_timeout = Duration::from_secs(2);
    NetRemote::connect(ns, addr, config)
}

fn refuse_every_ping(body: &RequestBody) -> ResponseBody {
    match body {
        RequestBody::Ping { version } => ResponseBody::Err(WireError::VersionMismatch {
            server: 99,
            client: *version,
        }),
        _ => ResponseBody::Err(WireError::BadRequest("handshake first".into())),
    }
}

#[test]
fn a_refused_version_fails_fast_naming_both_versions() {
    for depth in [1, 4] {
        let peer = FakePeer::spawn(refuse_every_ping);
        let ns = format!("mismatch-{depth}");
        let client = client(&ns, &peer.addr.to_string(), depth);

        let err = client.search(&ContentExpr::term("x")).unwrap_err();
        let RemoteError::Unavailable(msg) = &err else {
            panic!("depth {depth}: expected Unavailable, got {err:?}");
        };
        assert!(
            msg.contains("server v99") && msg.contains(&format!("client v{PROTOCOL_VERSION}")),
            "depth {depth}: error must name both versions: {msg}"
        );

        // One ping at our version, nothing else: no retry, no downgrade.
        let seen = peer.seen();
        assert_eq!(seen.len(), 1, "depth {depth}: peer saw {seen:?}");
        assert_eq!(
            seen[0].body,
            RequestBody::Ping {
                version: PROTOCOL_VERSION
            }
        );
        let retries = hac_obs::snapshot()
            .counter_value("hac_net_retries_total", &[("ns", &ns), ("op", "search")])
            .unwrap_or(0);
        assert_eq!(
            retries, 0,
            "depth {depth}: a version mismatch is not retried"
        );
    }
}

#[test]
fn a_search_before_any_ping_gets_a_compact_response() {
    let backend = Arc::new(WebSearchSim::new("raw-ns"));
    backend.publish("w1", "Raw Page", b"unhandshaken vocabulary sample");
    let server = HacServer::serve("127.0.0.1:0", vec![backend], ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let search = RequestBody::Search {
        ns: "raw-ns".to_string(),
        query: ContentExpr::term("vocabulary"),
    };
    let payload = wire::encode_request(&Request::new(41, search));
    wire::write_frame(&mut stream, &payload).unwrap();
    let bytes = wire::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).unwrap();
    let resp = wire::decode_response_compact(&bytes).expect("compact-coded response");
    assert_eq!(resp.id, 41);
    assert_eq!(
        resp.body,
        ResponseBody::Docs(vec![RemoteDoc {
            id: "w1".to_string(),
            title: "Raw Page".to_string(),
        }])
    );
    server.shutdown();
}

#[test]
fn a_traced_call_on_a_fresh_connection_carries_its_context() {
    fn answer(body: &RequestBody) -> ResponseBody {
        match body {
            RequestBody::Ping { version } => ResponseBody::Pong { version: *version },
            _ => ResponseBody::Docs(vec![RemoteDoc {
                id: "d1".to_string(),
                title: "Doc".to_string(),
            }]),
        }
    }
    let peer = FakePeer::spawn(answer);
    let client = client("traced", &peer.addr.to_string(), 1);

    let root = hac_obs::span!("handshake_root");
    let root_ctx = hac_obs::current_trace().expect("test must run with an active trace");
    let docs = client.search(&ContentExpr::term("x")).unwrap();
    assert_eq!(docs.len(), 1);
    drop(root);

    let seen = peer.seen();
    assert_eq!(seen.len(), 2, "one ping, then the search: {seen:?}");
    assert_eq!(
        seen[0].body,
        RequestBody::Ping {
            version: PROTOCOL_VERSION
        }
    );
    assert!(matches!(seen[1].body, RequestBody::Search { .. }));
    let ctx = seen[1].trace.expect("the search must carry trace context");
    assert_eq!(ctx.trace_id, root_ctx.trace_id);
    assert_ne!(
        ctx.span_id, root_ctx.span_id,
        "the request span, not the root, parents the server side"
    );
}
