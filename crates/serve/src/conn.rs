//! The connection layer: everything a server does to a client socket.
//!
//! `serve` and the gateway both run this module; each supplies only a
//! per-frame [`Service`].
//!
//! * **Accept.** [`spawn`] runs the accept loop: `TCP_NODELAY`, a bounded
//!   write timeout, a short backoff on accept errors (EMFILE must not spin
//!   the loop at 100% CPU), and a handler registry. Each handler registers
//!   *before* it spawns and is joined by [`Acceptor::join`], so every frame
//!   a handler wrote has reached the kernel when the join returns.
//! * **Frames.** [`FrameReader`] is the one length-prefix reader. It keeps
//!   partial progress across read timeouts, grows its buffer in 64 KiB
//!   steps as bytes arrive (an announced but undelivered frame costs no
//!   allocation), and tells a clean EOF between frames from a broken
//!   connection. [`crate::wire::read_frame`] is its blocking use.
//! * **Per connection.** Reads poll every 100 ms. Three things end a
//!   connection with an `error` frame saying why: no frame completing
//!   within [`ServeConfig::read_timeout`] (idle or stalled mid-frame), an
//!   announcement over [`MAX_FRAME_BYTES`], and the frame that crosses a
//!   frame or byte budget. Incoming bytes are then shed for a bounded
//!   while so the close does not reset the reply away.
//! * **Drain.** One rule: once the service reports draining, a connection
//!   closes at its next frame boundary. An idle connection notices within
//!   one poll tick; a busy one closes right after answering the frame it
//!   holds; a frame still arriving gets at most 5 s more. However often a
//!   client sends, it cannot hold a drain open.

use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use retypd_core::fxhash::FxHashMap;
use retypd_core::sync::thread::JoinHandle;
use retypd_core::sync::{Arc, Mutex};

use crate::server::ServeConfig;
use crate::wire::{self, Response, MAX_FRAME_BYTES};

/// Granularity of frame-payload allocation: the buffer grows one chunk at
/// a time as bytes actually arrive.
const READ_CHUNK: usize = 64 << 10;

/// One poll tick: how often a waiting read re-checks the drain flag and
/// the read deadline. Bounds how long a drain waits on an idle connection.
const READ_POLL: Duration = Duration::from_millis(100);

/// Once a drain begins, a frame still arriving gets this long to finish
/// before the connection is dropped. Keeps the drain join bounded even
/// with the read timeout disabled.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Write timeout when reads are unbounded: a client that stops reading its
/// replies must not wedge a handler the drain will join.
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Pause after a failed `accept` (e.g. EMFILE) before retrying.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// The per-connection half of a [`ServeConfig`].
#[derive(Clone, Copy)]
struct Limits {
    read_timeout: Option<Duration>,
    max_frames: Option<u64>,
    max_bytes: Option<u64>,
}

/// A server's per-frame behavior; the connection layer does the rest.
pub trait Service: Send + Sync + 'static {
    /// Whether the server has begun draining. Must be sticky.
    fn draining(&self) -> bool;

    /// Answers one request frame, writing every reply frame to `stream`.
    /// Returns `false` to close the connection (e.g. a failed write).
    fn handle(&self, stream: &mut TcpStream, payload: Vec<u8>) -> bool;

    /// Called when a connection opens, before its first read.
    fn opened(&self) {}

    /// Called when a connection closes, on every exit path (a panicking
    /// [`Service::handle`] included).
    fn closed(&self) {}
}

/// Outcome of one [`FrameReader::poll`].
#[derive(Debug, PartialEq, Eq)]
pub enum Polled {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean end of stream: the peer closed between frames.
    Eof,
    /// The peer announced a frame over [`MAX_FRAME_BYTES`]. Nothing was
    /// allocated; the stream is desynchronized from here on.
    Oversized(usize),
}

/// Incremental reader for length-prefixed frames.
///
/// [`FrameReader::poll`] consumes bytes until a frame completes. A read
/// timeout on the stream surfaces as a `WouldBlock`/`TimedOut` error (see
/// [`is_timeout`]) with the partial frame kept, so the next poll resumes
/// where this one stopped. EOF inside a frame is an `UnexpectedEof` error.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The 4-byte big-endian length prefix, as received so far.
    prefix: [u8; 4],
    /// Bytes of the current frame received so far, prefix included.
    filled: usize,
    /// The announced payload length, once the prefix is complete.
    len: Option<usize>,
    /// Payload buffer, grown as bytes arrive.
    payload: Vec<u8>,
}

impl FrameReader {
    /// Whether any byte of the next frame has arrived.
    fn mid_frame(&self) -> bool {
        self.filled > 0
    }

    /// Reads until a frame completes, the stream ends, or a read fails.
    ///
    /// # Errors
    ///
    /// A read error, a timeout (progress kept), or EOF inside a frame.
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<Polled> {
        loop {
            let read = match self.len {
                None => r.read(&mut self.prefix[self.filled..]),
                Some(len) => {
                    let got = self.filled - 4;
                    if got == len {
                        self.filled = 0;
                        self.len = None;
                        return Ok(Polled::Frame(std::mem::take(&mut self.payload)));
                    }
                    if got == self.payload.len() {
                        self.payload.resize(got + (len - got).min(READ_CHUNK), 0);
                    }
                    r.read(&mut self.payload[got..])
                }
            };
            match read {
                Ok(0) if self.filled == 0 => return Ok(Polled::Eof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => {
                    self.filled += n;
                    if self.len.is_none() && self.filled == 4 {
                        let len = u32::from_be_bytes(self.prefix) as usize;
                        if len > MAX_FRAME_BYTES {
                            return Ok(Polled::Oversized(len));
                        }
                        self.len = Some(len);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Whether a read error is a read-timeout expiry (`WouldBlock` or
/// `TimedOut`, depending on the platform): no bytes yet, try again.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Live connection handlers by id. The acceptor inserts `None` *before*
/// spawning (so a handler that finishes instantly deregisters an existing
/// entry instead of racing the insert) and fills in the handle after.
type Handlers = Mutex<FxHashMap<u64, Option<JoinHandle<()>>>>;

/// A running accept loop and the handlers it spawned.
pub struct Acceptor {
    thread: JoinHandle<()>,
    handlers: Arc<Handlers>,
}

impl Acceptor {
    /// Waits for the accept loop to exit (it exits on the first accept
    /// after [`Service::draining`] turns true; see [`nudge`]), then joins
    /// every connection handler still running.
    pub fn join(self) {
        let _ = self.thread.join();
        // With the acceptor gone no handler can register; each remaining
        // one closes at its next frame boundary, so this is bounded.
        let handles: Vec<JoinHandle<()>> = self
            .handlers
            .lock()
            .expect("connection registry")
            .drain()
            .filter_map(|(_, handle)| handle)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Starts the accept loop on `listener`, with `config`'s read timeout
/// and per-connection budgets. Threads are named `<name>-acceptor` and
/// `<name>-conn`.
///
/// # Errors
///
/// Fails if the acceptor thread cannot be spawned.
pub fn spawn<S: Service>(
    listener: TcpListener,
    name: &str,
    config: &ServeConfig,
    service: Arc<S>,
) -> io::Result<Acceptor> {
    let limits = Limits {
        read_timeout: config.read_timeout,
        max_frames: config.max_frames_per_conn,
        max_bytes: config.max_bytes_per_conn,
    };
    let handlers = Arc::new(Mutex::new(FxHashMap::default()));
    let registry = Arc::clone(&handlers);
    let conn_name = format!("{name}-conn");
    let thread = retypd_core::sync::thread::Builder::new()
        .name(format!("{name}-acceptor"))
        .spawn(move || accept_loop(&listener, &conn_name, limits, &service, &registry))?;
    Ok(Acceptor { thread, handlers })
}

fn accept_loop<S: Service>(
    listener: &TcpListener,
    conn_name: &str,
    limits: Limits,
    service: &Arc<S>,
    handlers: &Arc<Handlers>,
) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if service.draining() {
            return;
        }
        let Ok(stream) = stream else {
            retypd_core::sync::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        // Frames are small request/response pairs; Nagle + delayed ACK
        // would add ~40ms to every warm hit.
        stream.set_nodelay(true).ok();
        stream
            .set_write_timeout(Some(limits.read_timeout.unwrap_or(DEFAULT_WRITE_TIMEOUT)))
            .ok();
        let id = next_id;
        next_id += 1;
        handlers
            .lock()
            .expect("connection registry")
            .insert(id, None);
        let service = Arc::clone(service);
        let registry = Arc::clone(handlers);
        let spawned = retypd_core::sync::thread::Builder::new()
            .name(conn_name.to_owned())
            .spawn(move || {
                serve_conn(stream, limits, &*service);
                // Deregister after the last write. If the drain already
                // took this handle, the removal is a no-op and the join
                // covers us.
                registry.lock().expect("connection registry").remove(&id);
            });
        let mut live = handlers.lock().expect("connection registry");
        match spawned {
            // A missing entry means the handler already finished.
            Ok(handle) => {
                if let Some(slot) = live.get_mut(&id) {
                    *slot = Some(handle);
                }
            }
            Err(_) => {
                live.remove(&id);
            }
        }
    }
}

/// Wakes an accept loop blocked in `accept()` so it observes the drain
/// flag. A bind to `0.0.0.0`/`[::]` is not a connectable destination
/// everywhere, so the nudge aims at loopback on the same port. If it
/// fails (e.g. ephemeral-port exhaustion), the next real connection
/// wakes the loop instead.
pub fn nudge(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn serve_conn(mut stream: TcpStream, limits: Limits, service: &impl Service) {
    service.opened();
    struct Closed<'a, S: Service>(&'a S);
    impl<S: Service> Drop for Closed<'_, S> {
        fn drop(&mut self) {
            self.0.closed();
        }
    }
    let _closed = Closed(service);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut reader = FrameReader::default();
    let (mut frames, mut bytes) = (0u64, 0u64);
    let refusal = loop {
        let payload = match next_frame(&mut stream, &mut reader, limits.read_timeout, service) {
            Ok(payload) => payload,
            Err(refusal) => break refusal,
        };
        // Budgets are cumulative: one socket cannot extract unbounded work
        // or feed unbounded bytes, however well-formed each frame is.
        frames += 1;
        bytes += 4 + payload.len() as u64;
        if let Some(limit) = limits.max_frames.filter(|&l| frames > l) {
            break Some(format!(
                "per-connection frame budget of {limit} frames exhausted; closing connection"
            ));
        }
        if let Some(limit) = limits.max_bytes.filter(|&l| bytes > l) {
            break Some(format!(
                "per-connection byte budget of {limit} bytes exhausted; closing connection"
            ));
        }
        // The drain rule's frame boundary: a frame in hand is answered,
        // then a draining server closes instead of reading the next.
        if !service.handle(&mut stream, payload) || service.draining() {
            break None;
        }
    };
    // A refused client learns why before the close.
    if let Some(why) = refusal {
        let _ = wire::write_frame(&mut stream, &Response::Error(why).encode());
        shed(&mut stream);
    }
}

/// Polls `reader` until a frame completes, re-checking the drain flag and
/// the read deadline every `READ_POLL` tick. `Err` carries the `error`
/// reply owed before the close, if any.
fn next_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    read_timeout: Option<Duration>,
    service: &impl Service,
) -> Result<Vec<u8>, Option<String>> {
    let deadline = read_timeout.map(|t| Instant::now() + t);
    let mut drain_cutoff: Option<Instant> = None;
    loop {
        match reader.poll(stream) {
            Ok(Polled::Frame(payload)) => return Ok(payload),
            Ok(Polled::Eof) => return Err(None),
            Ok(Polled::Oversized(len)) => {
                return Err(Some(format!("peer announced {len}-byte frame, over cap")))
            }
            Err(e) if is_timeout(&e) => {
                if service.draining() {
                    // Idle: close without a reply, since an unsolicited
                    // frame would desynchronize a request/response client.
                    if !reader.mid_frame() {
                        return Err(None);
                    }
                    let cutoff = *drain_cutoff.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if Instant::now() >= cutoff {
                        return Err(None);
                    }
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    let secs = read_timeout.unwrap_or_default().as_secs();
                    return Err(Some(format!(
                        "read timed out after {secs}s; closing connection"
                    )));
                }
            }
            Err(_) => return Err(None),
        }
    }
}

/// Discards incoming bytes for a short, bounded while. Closing a socket
/// with unread received data sends an RST that can destroy the reply
/// still in flight; a refused payload (or a pipelined frame) may still be
/// arriving, and a firehosing peer must not pin the thread.
fn shed(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retypd_core::sync::atomic::{AtomicBool, Ordering};
    use std::io::Write;

    /// Echoes every frame; drains when told to.
    #[derive(Default)]
    struct Echo {
        draining: AtomicBool,
    }

    impl Service for Echo {
        fn draining(&self) -> bool {
            self.draining.load(Ordering::Acquire)
        }

        fn handle(&self, stream: &mut TcpStream, payload: Vec<u8>) -> bool {
            wire::write_frame(stream, &payload).is_ok()
        }
    }

    fn echo_server(limits: ServeConfig) -> (SocketAddr, Arc<Echo>, Acceptor) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let echo = Arc::new(Echo::default());
        let acceptor = spawn(listener, "echo", &limits, Arc::clone(&echo)).expect("spawn");
        (addr, echo, acceptor)
    }

    fn stop(addr: SocketAddr, echo: &Echo, acceptor: Acceptor) {
        echo.draining.store(true, Ordering::Release);
        nudge(addr);
        acceptor.join();
    }

    fn unlimited() -> ServeConfig {
        ServeConfig {
            read_timeout: None,
            max_frames_per_conn: None,
            max_bytes_per_conn: None,
            ..ServeConfig::default()
        }
    }

    fn error_text(stream: &mut TcpStream) -> String {
        let frame = wire::read_frame(stream)
            .expect("read")
            .expect("error frame");
        match Response::decode(&frame).expect("decodes") {
            Response::Error(m) => m,
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn reader_keeps_progress_across_timeouts_and_tells_eof_from_truncation() {
        /// Hands out one byte per read, with a timeout between bytes.
        struct Trickle(Vec<u8>, usize, bool);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.2 = !self.2;
                if self.2 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let Some(&b) = self.0.get(self.1) else {
                    return Ok(0);
                };
                self.1 += 1;
                buf[0] = b;
                Ok(1)
            }
        }
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, b"hello").unwrap();
        wire::write_frame(&mut bytes, b"").unwrap();
        let mut src = Trickle(bytes, 0, false);
        let mut reader = FrameReader::default();
        let mut got = Vec::new();
        loop {
            match reader.poll(&mut src) {
                Ok(Polled::Frame(p)) => got.push(p),
                Ok(Polled::Eof) => break,
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => assert!(is_timeout(&e), "{e}"),
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), Vec::new()]);

        let mut truncated = &[0u8, 0, 0, 9, b'x'][..];
        let err = FrameReader::default().poll(&mut truncated).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn reader_grows_with_delivered_bytes_not_the_announcement() {
        let mut announced = &(MAX_FRAME_BYTES as u32).to_be_bytes()[..];
        let mut reader = FrameReader::default();
        assert!(reader.poll(&mut announced).is_err(), "truncated");
        assert!(reader.mid_frame());
        assert!(reader.payload.capacity() <= READ_CHUNK);
        let mut huge = &u32::MAX.to_be_bytes()[..];
        assert_eq!(
            FrameReader::default().poll(&mut huge).unwrap(),
            Polled::Oversized(u32::MAX as usize)
        );
    }

    #[test]
    fn idle_and_stalled_connections_time_out_with_an_error_frame() {
        let (addr, echo, acceptor) = echo_server(ServeConfig {
            read_timeout: Some(Duration::from_millis(300)),
            ..unlimited()
        });
        let mut idle = TcpStream::connect(addr).expect("connect");
        assert!(error_text(&mut idle).contains("timed out"));
        assert_eq!(wire::read_frame(&mut idle).unwrap_or(None), None, "closed");
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(&[0, 0]).unwrap();
        assert!(error_text(&mut stalled).contains("timed out"));
        stop(addr, &echo, acceptor);
    }

    #[test]
    fn budgets_refuse_the_crossing_frame_then_close() {
        for (limits, serves, what) in [
            (
                ServeConfig {
                    max_frames_per_conn: Some(2),
                    ..unlimited()
                },
                2,
                "frame budget of 2",
            ),
            (
                // Each frame costs 4 + 2 bytes: two fit in 13, three do not.
                ServeConfig {
                    max_bytes_per_conn: Some(13),
                    ..unlimited()
                },
                2,
                "byte budget of 13",
            ),
        ] {
            let (addr, echo, acceptor) = echo_server(limits);
            let mut s = TcpStream::connect(addr).expect("connect");
            for _ in 0..serves {
                wire::write_frame(&mut s, b"hi").unwrap();
                assert_eq!(
                    wire::read_frame(&mut s).unwrap().as_deref(),
                    Some(&b"hi"[..])
                );
            }
            wire::write_frame(&mut s, b"hi").unwrap();
            let why = error_text(&mut s);
            assert!(why.contains(what), "{why}");
            assert_eq!(
                wire::read_frame(&mut s).unwrap(),
                None,
                "closed after refusal"
            );
            stop(addr, &echo, acceptor);
        }
    }

    #[test]
    fn drain_closes_a_busy_connection_at_its_next_frame_boundary() {
        let (addr, echo, acceptor) = echo_server(unlimited());
        let mut s = TcpStream::connect(addr).expect("connect");
        wire::write_frame(&mut s, b"before").unwrap();
        assert!(wire::read_frame(&mut s).unwrap().is_some());
        echo.draining.store(true, Ordering::Release);
        nudge(addr);
        // A frame racing the drain is answered or refused by a close; a
        // client that keeps sending never holds the join open.
        let _ = wire::write_frame(&mut s, b"racing");
        let _ = wire::read_frame(&mut s);
        let started = Instant::now();
        acceptor.join();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{:?}",
            started.elapsed()
        );
    }
}
