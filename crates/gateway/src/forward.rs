//! Request forwarding: single-frame exchanges with a backend, plus the
//! hedged variant that races two backends and takes the first reply.
//!
//! ## Polling two sockets
//!
//! While a hedge is outstanding the gateway alternates short polls
//! between *two* sockets, so a reply frame that arrives spread across
//! several poll ticks must accumulate. Each socket gets its own
//! [`FrameReader`] (the connection layer's one length-prefix reader),
//! which keeps the partial prefix and payload across read timeouts: each
//! tick resumes exactly where the last one stopped.
//!
//! ## Duplicate-reply suppression
//!
//! A hedged request reaches two backends and both will eventually
//! answer. Exactly one reply crosses the gateway: the first *winning*
//! frame is forwarded and the losing connection is dropped on the floor
//! (never pooled — its socket still carries the duplicate reply). A
//! hedge reply only wins if it is a success kind; a fast `overloaded`
//! from the hedge target must not beat a slow-but-working primary.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use retypd_serve::conn::{is_timeout, FrameReader, Polled};
use retypd_serve::wire::{self, Response};

/// One poll of `rd`: `Ok(Some(payload))` when the frame completed,
/// `Ok(None)` when the read timed out with the frame still incomplete
/// (partial progress is kept), `Err` on EOF, an oversized frame, or a
/// transport error.
fn poll(rd: &mut FrameReader, stream: &mut TcpStream) -> Result<Option<Vec<u8>>, String> {
    match rd.poll(stream) {
        Ok(Polled::Frame(payload)) => Ok(Some(payload)),
        Ok(Polled::Eof) => Err("connection closed".into()),
        Ok(Polled::Oversized(len)) => Err(format!("reply frame of {len} bytes exceeds cap")),
        Err(e) if is_timeout(&e) => Ok(None),
        Err(e) => Err(format!("read failed: {e}")),
    }
}

/// Who answered a (possibly hedged) exchange.
#[derive(Debug)]
pub enum Winner {
    /// The primary backend answered first (or hedging never fired).
    Primary,
    /// The hedge target answered first; its connection is returned (when
    /// still clean) so the caller can pool it for the hedge slot. The
    /// primary's connection must be discarded — it still owes a
    /// duplicate reply.
    Hedge(Option<TcpStream>),
}

/// Outcome of [`hedged_exchange`]: the winning reply frame and enough
/// bookkeeping for the caller's connection pool and hedge counters.
#[derive(Debug)]
pub struct Exchange {
    /// The winning reply frame payload, forwarded verbatim to the client.
    pub payload: Vec<u8>,
    /// Which connection won.
    pub winner: Winner,
    /// Whether the hedge timer expired and a duplicate was sent.
    pub hedged: bool,
}

/// How long each poll tick waits once two sockets are in play. Short
/// enough that the race adds at most ~a millisecond of latency to the
/// winner, long enough not to spin.
const HEDGE_POLL_TICK: Duration = Duration::from_millis(1);

/// Sends `request` on `primary` and waits for one reply frame. If
/// `hedge_after` elapses first and `open_hedge` yields a second
/// connection, the request is duplicated onto it and both sockets race;
/// the first (eligible) complete frame wins.
///
/// `open_hedge` is invoked at most once, only when the timer fires —
/// hedging costs nothing on the fast path.
pub fn hedged_exchange(
    request: &[u8],
    primary: &mut TcpStream,
    hedge_after: Option<Duration>,
    open_hedge: impl FnOnce() -> Option<TcpStream>,
    deadline: Duration,
) -> Result<Exchange, String> {
    let start = Instant::now();
    send_frame(primary, request)?;

    let mut primary_rd = FrameReader::default();
    // Phase 1: the primary alone, in one long blocking read up to the
    // hedge timer (or the full deadline when hedging is off). The common
    // case — a warm backend answering in microseconds — pays zero
    // polling overhead. A primary *failure* here fails fast into the
    // hedge (when one is allowed) rather than waiting out the timer.
    let mut primary_err: Option<String> = None;
    let phase1 = hedge_after.unwrap_or(deadline).min(deadline);
    loop {
        let elapsed = start.elapsed();
        if elapsed >= phase1 {
            break;
        }
        set_read_timeout(primary, phase1 - elapsed)?;
        match poll(&mut primary_rd, primary) {
            Ok(Some(payload)) => {
                return Ok(Exchange {
                    payload,
                    winner: Winner::Primary,
                    hedged: false,
                })
            }
            Ok(None) => {}
            Err(e) if hedge_after.is_some() => {
                primary_err = Some(e);
                break;
            }
            Err(e) => return Err(format!("primary: {e}")),
        }
    }
    if hedge_after.is_none() || start.elapsed() >= deadline {
        return Err(format!("no reply within {deadline:?}"));
    }

    // Phase 2: the hedge timer fired (or the primary died). Duplicate
    // the request onto the hedge connection; with both sockets live,
    // alternate short polls and let the first eligible frame win.
    let mut hedge = open_hedge().and_then(|mut conn| {
        send_frame(&mut conn, request).ok()?;
        Some((conn, FrameReader::default()))
    });
    let hedged = hedge.is_some();
    if let Some(pe) = primary_err {
        // The primary is already gone: the race is the hedge alone.
        let Some((conn, rd)) = hedge else {
            return Err(format!("primary: {pe}; no hedge connection"));
        };
        return hedge_alone(conn, rd, start, deadline)
            .map(|payload| Exchange {
                payload,
                winner: Winner::Hedge(None),
                hedged,
            })
            .map_err(|he| format!("primary: {pe}; hedge: {he}"));
    }
    loop {
        if start.elapsed() >= deadline {
            return Err(format!("no reply within {deadline:?}"));
        }
        set_read_timeout(primary, HEDGE_POLL_TICK)?;
        match poll(&mut primary_rd, primary) {
            Ok(Some(payload)) => {
                return Ok(Exchange {
                    payload,
                    winner: Winner::Primary,
                    hedged,
                })
            }
            Ok(None) => {}
            // A dead primary does not fail a hedged exchange; the race
            // continues on the hedge connection alone. (That socket is
            // consumed by the wait, so the win carries no poolable
            // stream.)
            Err(e) if hedge.is_some() => {
                let (conn, rd) = hedge.take().expect("checked");
                return hedge_alone(conn, rd, start, deadline)
                    .map(|payload| Exchange {
                        payload,
                        winner: Winner::Hedge(None),
                        hedged,
                    })
                    .map_err(|he| format!("primary: {e}; hedge: {he}"));
            }
            Err(e) => return Err(format!("primary: {e}")),
        }
        if let Some((conn, rd)) = hedge.as_mut() {
            set_read_timeout(conn, HEDGE_POLL_TICK)?;
            match poll(rd, conn) {
                Ok(Some(payload)) => {
                    if hedge_reply_wins(&payload) {
                        let (conn, _) = hedge.take().expect("checked");
                        return Ok(Exchange {
                            payload,
                            winner: Winner::Hedge(Some(conn)),
                            hedged,
                        });
                    }
                    // An overloaded/error hedge reply loses by rule: keep
                    // waiting on the primary alone.
                    hedge = None;
                }
                Ok(None) => {}
                // A dead hedge just un-hedges the exchange.
                Err(_) => hedge = None,
            }
        }
    }
}

/// Continues a hedged race after the primary died: drains the hedge
/// connection alone under the original deadline.
fn hedge_alone(
    mut conn: TcpStream,
    mut rd: FrameReader,
    start: Instant,
    deadline: Duration,
) -> Result<Vec<u8>, String> {
    loop {
        let elapsed = start.elapsed();
        if elapsed >= deadline {
            return Err(format!("no reply within {deadline:?}"));
        }
        set_read_timeout(&mut conn, deadline - elapsed)?;
        match poll(&mut rd, &mut conn) {
            Ok(Some(payload)) => return Ok(payload),
            Ok(None) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Whether a hedge reply is allowed to win the race. Success kinds win;
/// refusals and failures do not — a struggling hedge target must not
/// mask a healthy primary's answer.
fn hedge_reply_wins(payload: &[u8]) -> bool {
    matches!(
        Response::decode(payload),
        Ok(Response::Solved(_)
            | Response::Report { .. }
            | Response::BatchDone(_)
            | Response::Stats(_)
            | Response::Metrics(_))
    )
}

/// Writes one frame with a bounded write timeout (a wedged backend must
/// not hang the forwarder in `write_all`).
fn send_frame(stream: &mut TcpStream, payload: &[u8]) -> Result<(), String> {
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set write timeout: {e}"))?;
    wire::write_frame(stream, payload).map_err(|e| format!("send failed: {e}"))?;
    stream.flush().map_err(|e| format!("flush failed: {e}"))
}

/// A plain (non-hedged) single-frame exchange with `deadline` to first
/// byte-complete reply. The building block for health probes, stats
/// aggregation, and metrics fan-in.
pub fn exchange(
    stream: &mut TcpStream,
    request: &[u8],
    deadline: Duration,
) -> Result<Vec<u8>, String> {
    let ex = hedged_exchange(request, stream, None, || None, deadline)?;
    Ok(ex.payload)
}

fn set_read_timeout(stream: &mut TcpStream, d: Duration) -> Result<(), String> {
    // Zero means "no timeout" to the OS; clamp up to the smallest real one.
    let d = d.max(Duration::from_millis(1));
    stream
        .set_read_timeout(Some(d))
        .map_err(|e| format!("set read timeout: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot server thread: accepts one connection, reads one frame,
    /// optionally stalls, replies with `reply`, keeps the socket open.
    fn one_shot(reply: Vec<u8>, stall: Duration) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        retypd_core::sync::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let got = wire::read_frame(&mut conn).expect("read").expect("frame");
            assert!(!got.is_empty());
            retypd_core::sync::thread::sleep(stall);
            wire::write_frame(&mut conn, &reply).expect("write");
            // Hold the socket open long enough for the race to resolve.
            retypd_core::sync::thread::sleep(Duration::from_millis(500));
        });
        addr
    }

    fn stats_reply() -> Vec<u8> {
        Response::Stats(retypd_serve::wire::WireStats {
            accepted: 1,
            rejected: 0,
            queued: 0,
            queue_limit: 8,
            pid: 1,
            start_ns: 1,
            shards: vec![],
        })
        .encode()
    }

    #[test]
    fn frame_reader_survives_byte_at_a_time_delivery() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let payload = b"{\"kind\": \"shutting_down\"}".to_vec();
        let expected = payload.clone();
        retypd_core::sync::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(&payload);
            for b in frame {
                conn.write_all(&[b]).expect("write");
                conn.flush().expect("flush");
                retypd_core::sync::thread::sleep(Duration::from_millis(2));
            }
            retypd_core::sync::thread::sleep(Duration::from_millis(200));
        });
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut rd = FrameReader::default();
        let start = Instant::now();
        loop {
            conn.set_read_timeout(Some(Duration::from_millis(3))).unwrap();
            match poll(&mut rd, &mut conn) {
                Ok(Some(got)) => {
                    assert_eq!(got, expected);
                    break;
                }
                Ok(None) => assert!(start.elapsed() < Duration::from_secs(10), "stuck"),
                Err(e) => panic!("reader failed: {e}"),
            }
        }
    }

    #[test]
    fn unhedged_exchange_round_trips() {
        let addr = one_shot(stats_reply(), Duration::ZERO);
        let mut conn = TcpStream::connect(addr).expect("connect");
        let reply = exchange(
            &mut conn,
            &wire::Request::Stats.encode(),
            Duration::from_secs(5),
        )
        .expect("exchange");
        assert!(matches!(
            Response::decode(&reply),
            Ok(Response::Stats(_))
        ));
    }

    #[test]
    fn hedge_fires_and_fast_secondary_wins() {
        // Primary stalls 2s; hedge target answers immediately. With a
        // 50ms hedge timer the exchange must finish far sooner than the
        // primary would allow, via the hedge connection.
        let slow = one_shot(stats_reply(), Duration::from_secs(2));
        let fast = one_shot(stats_reply(), Duration::ZERO);
        let mut primary = TcpStream::connect(slow).expect("connect");
        let start = Instant::now();
        let ex = hedged_exchange(
            &wire::Request::Stats.encode(),
            &mut primary,
            Some(Duration::from_millis(50)),
            || TcpStream::connect(fast).ok(),
            Duration::from_secs(10),
        )
        .expect("exchange");
        assert!(ex.hedged, "timer must have fired");
        assert!(matches!(ex.winner, Winner::Hedge(_)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "hedge win took {:?} — raced the slow primary badly",
            start.elapsed()
        );
    }

    #[test]
    fn overloaded_hedge_reply_does_not_beat_the_primary() {
        // The hedge target instantly refuses; the primary answers after
        // 300ms. The refusal must lose and the primary's stats win.
        let primary_addr = one_shot(stats_reply(), Duration::from_millis(300));
        let refusing = one_shot(
            Response::Overloaded { queued: 8, limit: 8 }.encode(),
            Duration::ZERO,
        );
        let mut primary = TcpStream::connect(primary_addr).expect("connect");
        let ex = hedged_exchange(
            &wire::Request::Stats.encode(),
            &mut primary,
            Some(Duration::from_millis(20)),
            || TcpStream::connect(refusing).ok(),
            Duration::from_secs(10),
        )
        .expect("exchange");
        assert!(ex.hedged);
        assert!(matches!(ex.winner, Winner::Primary));
        assert!(matches!(
            Response::decode(&ex.payload),
            Ok(Response::Stats(_))
        ));
    }

    #[test]
    fn dead_primary_with_live_hedge_still_answers() {
        // Primary accepts, reads the request, then slams the connection.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_addr = listener.local_addr().expect("addr");
        retypd_core::sync::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = wire::read_frame(&mut conn);
            drop(conn);
        });
        let live = one_shot(stats_reply(), Duration::from_millis(100));
        let mut primary = TcpStream::connect(dead_addr).expect("connect");
        let ex = hedged_exchange(
            &wire::Request::Stats.encode(),
            &mut primary,
            Some(Duration::from_millis(20)),
            || TcpStream::connect(live).ok(),
            Duration::from_secs(10),
        )
        .expect("the hedge must carry the exchange");
        assert!(matches!(ex.winner, Winner::Hedge(_)));
    }
}
