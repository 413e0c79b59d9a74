//! The framed wire protocol behind `predtop serve`.
//!
//! Frames are a 4-byte little-endian length prefix followed by exactly
//! that many payload bytes; payloads are the canonical
//! [`api`](crate::api) request/response encodings. One frame carries
//! one request or one response, so the stream never needs resync and a
//! short read is always detectable.
//!
//! The [`Server`] listens on TCP and/or a Unix socket, sizes its
//! connection concurrency from `predtop-runtime`'s
//! [`configured_threads`] resolution (each request then fans out across
//! the same runtime pool through the stack's `Batched` layer), and
//! drains gracefully: a `Shutdown` frame — or SIGTERM/SIGINT via
//! [`signal::install_drain_signals`] — flips one shared drain flag,
//! after which the accept loop closes its listeners (new connections
//! are refused at the OS level), every live connection finishes its
//! in-flight request and is answered, and each connection is closed
//! after at most one post-drain response. The server returns once the
//! last connection ends.
//!
//! The server is transport and policy: *what* a request does — and the
//! admission-control decision to shed it — lives in the engine behind
//! the `handler` closure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::api::{decode_request, encode_response, ErrorBody, ErrorKind, Request, Response};
use predtop_runtime::configured_threads;

/// Hard ceiling on one frame's payload size (16 MiB). A peer
/// announcing a larger frame is malformed (or hostile) and its
/// connection is dropped before any allocation of that size.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// How long one blocked read waits before the connection loop rechecks
/// the drain flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Write one frame: 4-byte little-endian length prefix, then the
/// payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame from a blocking stream. Returns `Ok(None)` on a
/// clean end-of-stream (EOF before the first prefix byte); EOF anywhere
/// inside a frame is an [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (max {MAX_FRAME_LEN})"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame payload",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

/// A blocking request/response client over any framed byte stream
/// (a `TcpStream`, a `UnixStream`, or an in-memory pipe in tests).
#[derive(Debug)]
pub struct Client<S: Read + Write> {
    stream: S,
}

impl<S: Read + Write> Client<S> {
    /// Wrap an already-connected stream.
    pub fn new(stream: S) -> Client<S> {
        Client { stream }
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &crate::api::encode_request(req))?;
        self.stream.flush()?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )
        })?;
        crate::api::decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Give back the underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }
}

/// Tuning knobs of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection ceiling; further connections wait in the
    /// OS accept backlog until a slot frees (and are refused once drain
    /// closes the listeners).
    pub max_connections: usize,
    /// How many 50 ms read-poll intervals an *idle* connection survives
    /// after drain begins before it is closed. A connection that is
    /// mid-frame or mid-request is never cut — the grace clock only
    /// ticks while nothing is buffered.
    pub drain_grace_polls: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: configured_threads().max(4),
            drain_grace_polls: 40,
        }
    }
}

/// What one [`Server::run`] did, returned after the drain completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn prepare(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(READ_POLL))?;
                s.set_nodelay(true)
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(READ_POLL))
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] owns the calling
/// thread until drain completes.
pub struct Server {
    tcp: Option<TcpListener>,
    #[cfg(unix)]
    unix: Option<(UnixListener, PathBuf)>,
    drain: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Bind the requested listeners. At least one of `tcp` (a
    /// `host:port` address) and `unix_path` must be given. A
    /// pre-existing file at `unix_path` is removed first — stale socket
    /// files from a killed daemon would otherwise wedge every restart.
    /// On non-Unix platforms a `unix_path` is an error.
    pub fn bind(
        tcp: Option<&str>,
        unix_path: Option<&Path>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        if tcp.is_none() && unix_path.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs at least one listener (TCP address or Unix socket path)",
            ));
        }
        let tcp = match tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        #[cfg(unix)]
        let unix = match unix_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some((l, path.to_path_buf()))
            }
            None => None,
        };
        #[cfg(not(unix))]
        if unix_path.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "Unix sockets are not available on this platform",
            ));
        }
        Ok(Server {
            tcp,
            #[cfg(unix)]
            unix,
            drain: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The TCP listener's bound address (useful after binding port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// A shared flag that begins graceful drain when set. The server
    /// also drains on a `Shutdown` frame or an installed signal.
    pub fn drain_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.drain)
    }

    fn try_accept(&self) -> Option<Stream> {
        if let Some(l) = &self.tcp {
            match l.accept() {
                Ok((s, _)) => return Some(Stream::Tcp(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        #[cfg(unix)]
        if let Some((l, _)) = &self.unix {
            match l.accept() {
                Ok((s, _)) => return Some(Stream::Unix(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        None
    }

    /// Accept and serve connections until drain completes, answering
    /// every decoded request with `handler(&request)`. `handler` runs
    /// concurrently from the per-connection threads, one in-flight
    /// request per connection.
    pub fn run<H>(mut self, handler: H) -> io::Result<ServerStats>
    where
        H: Fn(&Request) -> Response + Sync,
    {
        let drain = Arc::clone(&self.drain);
        let active = AtomicUsize::new(0);
        let connections = AtomicU64::new(0);
        let grace = self.config.drain_grace_polls;
        let max_connections = self.config.max_connections;
        #[cfg(unix)]
        let unix_path: Option<PathBuf> = self.unix.as_ref().map(|(_, p)| p.clone());

        std::thread::scope(|scope| {
            loop {
                if signal::drain_requested() {
                    drain.store(true, Ordering::SeqCst);
                }
                if drain.load(Ordering::SeqCst) {
                    break;
                }
                if active.load(Ordering::SeqCst) >= max_connections {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                match self.try_accept() {
                    Some(stream) => {
                        if stream.prepare().is_err() {
                            continue;
                        }
                        connections.fetch_add(1, Ordering::SeqCst);
                        active.fetch_add(1, Ordering::SeqCst);
                        let drain = &drain;
                        let active = &active;
                        let handler = &handler;
                        scope.spawn(move || {
                            serve_connection(stream, handler, drain, grace);
                            active.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    None => std::thread::sleep(ACCEPT_POLL),
                }
            }
            // refuse new connections for the rest of the drain: the
            // in-flight connection threads keep running to completion,
            // but the listening sockets close right now
            self.tcp = None;
            #[cfg(unix)]
            {
                self.unix = None;
            }
        });

        #[cfg(unix)]
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(ServerStats {
            connections: connections.load(Ordering::SeqCst),
        })
    }
}

/// One connection's serve loop. Reads accumulate in a local buffer so a
/// poll timeout never loses partial frame bytes; complete frames are
/// decoded, handled, and answered in arrival order. After drain begins
/// the connection is closed after at most one further response (or
/// after `grace` idle polls if the peer sends nothing): the drain flag
/// is read when a frame is taken off the buffer, so a reply to a frame
/// taken before drain began never counts as that one response.
fn serve_connection<S, H>(mut stream: S, handler: &H, drain: &AtomicBool, grace: u32)
where
    S: Read + Write,
    H: Fn(&Request) -> Response + ?Sized,
{
    let mut acc: Vec<u8> = Vec::new();
    let mut idle_polls = 0u32;
    let mut scratch = [0u8; 4096];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => {
                acc.extend_from_slice(&scratch[..n]);
                idle_polls = 0;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if drain.load(Ordering::SeqCst) && acc.is_empty() {
                    idle_polls += 1;
                    if idle_polls >= grace {
                        return;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }

        while acc.len() >= 4 {
            let len = u32::from_le_bytes([acc[0], acc[1], acc[2], acc[3]]) as usize;
            if len > MAX_FRAME_LEN {
                return;
            }
            if acc.len() < 4 + len {
                break;
            }
            let payload: Vec<u8> = acc[4..4 + len].to_vec();
            acc.drain(..4 + len);
            let post_drain = drain.load(Ordering::SeqCst);

            let resp = match decode_request(&payload) {
                Ok(req) => handler(&req),
                Err(e) => {
                    let resp = Response::Error(ErrorBody {
                        kind: ErrorKind::BadRequest,
                        transient: false,
                        message: format!("undecodable request frame: {e}"),
                    });
                    let _ = write_frame(&mut stream, &encode_response(&resp));
                    let _ = stream.flush();
                    return;
                }
            };
            let bye = matches!(resp, Response::Bye);
            if write_frame(&mut stream, &encode_response(&resp)).is_err() {
                return;
            }
            if stream.flush().is_err() {
                return;
            }
            if bye {
                // the handler acknowledged Shutdown: begin server-wide
                // drain and close this connection
                drain.store(true, Ordering::SeqCst);
                return;
            }
            if post_drain {
                // one post-drain response, then a deterministic close
                return;
            }
        }
    }
}

/// Raw SIGTERM/SIGINT → drain-flag binding, with no libc crate: the
/// daemon links the two symbols the C runtime already exports.
pub mod signal {
    #[cfg(unix)]
    use std::sync::atomic::{AtomicBool, Ordering};

    #[cfg(unix)]
    static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    type SigHandler = extern "C" fn(i32);

    #[cfg(unix)]
    extern "C" {
        // returns the previous handler as an address; declaring it as a
        // function pointer would be UB when the previous disposition is
        // SIG_DFL (the null pointer)
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    #[cfg(unix)]
    extern "C" fn on_drain_signal(_signum: i32) {
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }

    /// Route SIGINT and SIGTERM to the drain flag the server polls.
    /// Call once before [`Server::run`](super::Server::run); a handled
    /// signal then begins graceful drain instead of killing the
    /// process. No-op on non-Unix platforms.
    pub fn install_drain_signals() {
        #[cfg(unix)]
        unsafe {
            signal(2, on_drain_signal); // SIGINT
            signal(15, on_drain_signal); // SIGTERM
        }
    }

    /// True once an installed drain signal has fired.
    pub fn drain_requested() -> bool {
        #[cfg(unix)]
        {
            SIGNAL_DRAIN.load(Ordering::SeqCst)
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::encode_request;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversize_announcement_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// An in-memory duplex stream for driving `serve_connection`
    /// without sockets.
    struct Script {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn connection_loop_answers_every_frame_and_drains_on_bye() {
        let mut input = Vec::new();
        write_frame(&mut input, &encode_request(&Request::Stats)).unwrap();
        write_frame(&mut input, &encode_request(&Request::Shutdown)).unwrap();
        // a frame after Shutdown must never be answered
        write_frame(&mut input, &encode_request(&Request::Stats)).unwrap();
        let mut stream = Script {
            input: io::Cursor::new(input),
            output: Vec::new(),
        };
        let drain = AtomicBool::new(false);
        serve_connection(
            &mut stream,
            &|req: &Request| match req {
                Request::Shutdown => Response::Bye,
                _ => Response::Stats(Default::default()),
            },
            &drain,
            4,
        );
        assert!(drain.load(Ordering::SeqCst), "Bye must begin drain");
        let mut out = io::Cursor::new(stream.output);
        let first = read_frame(&mut out).unwrap().unwrap();
        assert!(matches!(
            crate::api::decode_response(&first).unwrap(),
            Response::Stats(_)
        ));
        let second = read_frame(&mut out).unwrap().unwrap();
        assert!(matches!(
            crate::api::decode_response(&second).unwrap(),
            Response::Bye
        ));
        assert_eq!(read_frame(&mut out).unwrap(), None, "no reply after Bye");
    }

    /// A [`Script`] whose `flush` begins drain: the peer of a real
    /// socket can read the reply and trigger drain before the server
    /// loop takes its next step.
    struct DrainOnFlush<'a> {
        script: Script,
        drain: &'a AtomicBool,
    }

    impl Read for DrainOnFlush<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.script.read(buf)
        }
    }

    impl Write for DrainOnFlush<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.script.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.drain.store(true, Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn drain_during_a_reply_still_allows_one_post_drain_response() {
        let mut input = Vec::new();
        for _ in 0..3 {
            write_frame(&mut input, &encode_request(&Request::Stats)).unwrap();
        }
        let drain = AtomicBool::new(false);
        let mut stream = DrainOnFlush {
            script: Script {
                input: io::Cursor::new(input),
                output: Vec::new(),
            },
            drain: &drain,
        };
        serve_connection(
            &mut stream,
            &|_req: &Request| Response::Stats(Default::default()),
            &drain,
            4,
        );
        // the first reply predates drain; the second frame is the one
        // post-drain response; the third is never answered
        let mut out = io::Cursor::new(stream.script.output);
        for _ in 0..2 {
            let frame = read_frame(&mut out).unwrap().expect("a reply");
            assert!(matches!(
                crate::api::decode_response(&frame).unwrap(),
                Response::Stats(_)
            ));
        }
        assert_eq!(read_frame(&mut out).unwrap(), None, "exactly two replies");
    }

    #[test]
    fn garbage_frame_gets_a_bad_request_and_a_close() {
        let mut input = Vec::new();
        write_frame(&mut input, &[0xFF, 0xFE, 0xFD]).unwrap();
        write_frame(&mut input, &encode_request(&Request::Stats)).unwrap();
        let mut stream = Script {
            input: io::Cursor::new(input),
            output: Vec::new(),
        };
        let drain = AtomicBool::new(false);
        serve_connection(
            &mut stream,
            &|_req: &Request| Response::Stats(Default::default()),
            &drain,
            4,
        );
        let mut out = io::Cursor::new(stream.output);
        let first = read_frame(&mut out).unwrap().unwrap();
        match crate::api::decode_response(&first).unwrap() {
            Response::Error(body) => {
                assert_eq!(body.kind, ErrorKind::BadRequest);
                assert!(!body.transient);
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // the connection closed before the well-formed follow-up frame
        assert_eq!(read_frame(&mut out).unwrap(), None);
    }

    #[test]
    fn zero_length_frame_gets_a_bad_request_and_a_close() {
        let mut input = Vec::new();
        write_frame(&mut input, &[]).unwrap();
        write_frame(&mut input, &encode_request(&Request::Stats)).unwrap();
        let mut stream = Script {
            input: io::Cursor::new(input),
            output: Vec::new(),
        };
        let drain = AtomicBool::new(false);
        serve_connection(
            &mut stream,
            &|_req: &Request| Response::Stats(Default::default()),
            &drain,
            4,
        );
        let mut out = io::Cursor::new(stream.output);
        let first = read_frame(&mut out).unwrap().unwrap();
        assert!(matches!(
            crate::api::decode_response(&first).unwrap(),
            Response::Error(ErrorBody {
                kind: ErrorKind::BadRequest,
                ..
            })
        ));
        assert_eq!(read_frame(&mut out).unwrap(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// `read_frame` is total: a length prefix that is exact, zero,
        /// short, past the end of the stream or above `MAX_FRAME_LEN`
        /// (or raw bytes with no prefix at all) yields frames no larger
        /// than the limit, a clean end, or an `UnexpectedEof` /
        /// `InvalidData` error — never a panic.
        #[test]
        fn prop_read_frame_is_total(
            prefix in 0u8..7,
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let len = body.len() as u32;
            let announced = match prefix {
                0 => Some(len),
                1 => Some(0),
                2 => Some(len / 2),
                3 => Some(len + 1),
                4 => Some(MAX_FRAME_LEN as u32 + 1),
                5 => Some(u32::MAX),
                _ => None,
            };
            let mut stream = Vec::new();
            if let Some(n) = announced {
                stream.extend_from_slice(&n.to_le_bytes());
            }
            stream.extend_from_slice(&body);
            let mut r = io::Cursor::new(stream);
            let first = read_frame(&mut r);
            match announced {
                Some(0) => proptest::prop_assert_eq!(first.as_ref().unwrap(), &Some(Vec::new())),
                Some(n) if n as usize > MAX_FRAME_LEN => proptest::prop_assert_eq!(
                    first.as_ref().unwrap_err().kind(),
                    io::ErrorKind::InvalidData
                ),
                Some(n) if n > len => proptest::prop_assert_eq!(
                    first.as_ref().unwrap_err().kind(),
                    io::ErrorKind::UnexpectedEof
                ),
                Some(n) => proptest::prop_assert_eq!(
                    first.as_ref().unwrap(),
                    &Some(body[..n as usize].to_vec())
                ),
                None => {}
            }
            let mut next = first;
            loop {
                match next {
                    Ok(None) => break,
                    Ok(Some(frame)) => proptest::prop_assert!(frame.len() <= MAX_FRAME_LEN),
                    Err(e) => {
                        proptest::prop_assert!(matches!(
                            e.kind(),
                            io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                        ));
                        break;
                    }
                }
                next = read_frame(&mut r);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// The connection loop survives arbitrary frame sequences (valid
        /// requests, garbage payloads, zero-length frames, oversized
        /// prefixes, stray bytes): every reply decodes, at most one is a
        /// `BadRequest` and it is the last, and no frame gets two
        /// replies.
        #[test]
        fn prop_connection_loop_survives_arbitrary_frames(
            frames in proptest::collection::vec(
                (0u8..5, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24)),
                0..6,
            ),
        ) {
            let mut input = Vec::new();
            for (kind, bytes) in &frames {
                match kind {
                    0 => write_frame(&mut input, &encode_request(&Request::Stats)).unwrap(),
                    1 => write_frame(&mut input, bytes).unwrap(),
                    2 => write_frame(&mut input, &[]).unwrap(),
                    3 => input.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes()),
                    _ => input.extend_from_slice(&bytes[..bytes.len().min(3)]),
                }
            }
            let mut stream = Script {
                input: io::Cursor::new(input),
                output: Vec::new(),
            };
            let drain = AtomicBool::new(false);
            serve_connection(
                &mut stream,
                &|_req: &Request| Response::Stats(Default::default()),
                &drain,
                4,
            );
            let mut out = io::Cursor::new(stream.output);
            let mut replies = Vec::new();
            while let Some(frame) = read_frame(&mut out).unwrap() {
                replies.push(crate::api::decode_response(&frame).unwrap());
            }
            proptest::prop_assert!(replies.len() <= frames.len());
            let bad = replies
                .iter()
                .position(|r| matches!(r, Response::Error(_)));
            if let Some(i) = bad {
                proptest::prop_assert_eq!(i, replies.len() - 1, "a reply followed a BadRequest");
            }
        }
    }
}
