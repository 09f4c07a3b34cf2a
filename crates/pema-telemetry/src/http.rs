//! The workspace's one HTTP/1.1 stack: a minimal blocking client and a
//! minimal threaded server over `std::net`, shared by the live backend
//! (`pema-live`), its `FakeCluster`, the `/metrics` listener and
//! `pema-cli metrics`.
//!
//! The live loop issues a handful of small requests per monitoring
//! window (~6 Prometheus range queries, one Kubernetes PATCH per
//! allocation change); a dependency-free blocking client with explicit
//! connect/read timeouts covers that without pulling an async runtime
//! into a codebase whose fleet executor is deliberately thread-based.
//!
//! Connections are kept alive. Each thread keeps its idle client
//! connections in a small pool keyed by endpoint, so a loop talking to
//! one Prometheus and one API server pays a TCP handshake per endpoint,
//! not per request. A connection goes back to the pool only after an
//! exchange that left it in a known state: an HTTP/1.1 answer framed by
//! `Content-Length`, read to exactly that length, without
//! `Connection: close`. Any error closes it, a timeout above all, whose
//! late answer would otherwise be read as the next request's. Before
//! reuse, a non-blocking `peek` must find nothing to read, not even a
//! close. Nothing is retried here: a request that fails on a reused
//! connection fails, and the caller's retry policy decides.
//!
//! [`Server`] is the matching other half: an accept thread plus one
//! thread per open connection, serving that connection's requests in
//! order through one handler that sees one request at a time. Each
//! request is read *in full* before the handler runs, so whatever the
//! handler answers (including nothing at all, which closes the
//! connection) the client sees the answer itself and never a TCP reset
//! from unread bytes. Fault injection stays exact: one fault per
//! *request*, and a dropped answer closes the connection it was asked
//! on.

use std::cell::RefCell;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors from one HTTP exchange. `Status` is *not* here: a well-formed
/// non-2xx response is reported through [`Response::status`] so callers
/// can decide which codes are retryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// TCP connect failed (refused, unreachable, connect timeout).
    Connect(String),
    /// The exchange timed out mid-request or mid-response.
    Timeout,
    /// The peer closed early or sent bytes that do not parse as
    /// HTTP/1.1.
    Malformed(String),
    /// Any other I/O failure mid-exchange (connection reset, broken
    /// pipe) that left no complete response behind.
    Io(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Connect(e) => write!(f, "connect failed: {e}"),
            HttpError::Timeout => write!(f, "request timed out"),
            HttpError::Malformed(e) => write!(f, "malformed response: {e}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// A parsed HTTP response: status line code plus the full body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the response line.
    pub status: u16,
    /// Response body, decoded from `Content-Length` framing (or read to
    /// EOF when the server closes the connection).
    pub body: String,
}

impl Response {
    /// True for 2xx codes.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// An `http://host:port` endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// Host name or address (no scheme, no port).
    pub host: String,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Parses `http://host:port` (scheme optional, TLS unsupported —
    /// the lab deployments this targets front Prometheus and the
    /// API server with plain HTTP or a local proxy). IPv6 literals
    /// use the standard bracketed form, `http://[::1]:9090`; the
    /// stored host is the bare address (no brackets).
    pub fn parse(url: &str) -> Result<Endpoint, String> {
        if let Some(rest) = url.strip_prefix("https://") {
            return Err(format!("https is not supported (got https://{rest})"));
        }
        let rest = url.strip_prefix("http://").unwrap_or(url);
        let rest = rest.trim_end_matches('/');
        let (host, port) = if let Some(bracketed) = rest.strip_prefix('[') {
            let (host, after) = bracketed
                .split_once(']')
                .ok_or_else(|| format!("unclosed '[' in \"{url}\""))?;
            let port = after
                .strip_prefix(':')
                .ok_or_else(|| format!("expected [host]:port, got \"{url}\""))?;
            (host, port)
        } else {
            let (host, port) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("expected host:port, got \"{url}\""))?;
            if host.contains(':') {
                return Err(format!(
                    "ambiguous IPv6 literal in \"{url}\" — use the bracketed form [addr]:port"
                ));
            }
            (host, port)
        };
        let port: u16 = port.parse().map_err(|_| format!("bad port in \"{url}\""))?;
        if host.is_empty() {
            return Err(format!("empty host in \"{url}\""));
        }
        Ok(Endpoint {
            host: host.to_string(),
            port,
        })
    }

    /// The host as it appears in URLs and `Host` headers: IPv6
    /// literals get their brackets back.
    fn host_for_wire(&self) -> String {
        if self.host.contains(':') {
            format!("[{}]", self.host)
        } else {
            self.host.clone()
        }
    }

    fn addr(&self) -> String {
        format!("{}:{}", self.host_for_wire(), self.port)
    }
}

/// Blocking HTTP/1.1 client with per-request timeouts. Its connections
/// live in the calling thread's pool (see the module docs), so clones
/// and separately built clients on one thread share them.
#[derive(Debug, Clone)]
pub struct HttpClient {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout covering the whole exchange after connect.
    pub io_timeout: Duration,
}

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// Longest response (head and body) the client reads before giving up
/// on the peer: a 100 000-member `/metrics` exposition is about a
/// quarter of it, a Prometheus or Kubernetes answer a thousandth.
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;
/// Idle connections one thread keeps, across all endpoints.
const POOL_CAPACITY: usize = 16;
/// Longest a pooled connection may sit idle and still be reused: well
/// under the server's idle timeout ([`SERVER_IO_TIMEOUT`]), so that a
/// server closing an idle connection does not race the request sent
/// on it.
const POOL_MAX_IDLE: Duration = Duration::from_secs(2);

/// A client connection and what it was opened for.
struct Conn {
    endpoint: Endpoint,
    stream: TcpStream,
    io_timeout: Duration,
    /// When it last went back to the pool.
    idle_since: Instant,
}

thread_local! {
    /// This thread's idle connections, least recently used first.
    static POOL: RefCell<Vec<Conn>> = const { RefCell::new(Vec::new()) };
}

/// Takes this thread's idle connection to `endpoint` out of the pool,
/// when it has one that is still fit to carry a request.
fn checkout(endpoint: &Endpoint) -> Option<Conn> {
    let conn = POOL.with_borrow_mut(|pool| {
        let i = pool.iter().rposition(|conn| conn.endpoint == *endpoint)?;
        Some(pool.remove(i))
    })?;
    (conn.idle_since.elapsed() <= POOL_MAX_IDLE && is_quiet(&conn.stream)).then_some(conn)
}

/// Puts `conn` back, evicting the least recently used connection when
/// the pool is full.
fn checkin(mut conn: Conn) {
    conn.idle_since = Instant::now();
    POOL.with_borrow_mut(|pool| {
        if pool.len() == POOL_CAPACITY {
            pool.remove(0);
        }
        pool.push(conn);
    });
}

/// True when an idle connection has nothing to read: no stray bytes
/// and no close from the peer. Only `WouldBlock` shows that.
fn is_quiet(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let quiet = matches!(stream.peek(&mut [0; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && quiet
}

impl HttpClient {
    /// Issues one request and reads the full response, on this
    /// thread's pooled connection to `endpoint` when it has a live one.
    ///
    /// `headers` are extra `Name: value` lines (e.g. authorization);
    /// `body` is sent with a `Content-Length` and a JSON content type.
    pub fn request(
        &self,
        endpoint: &Endpoint,
        method: &str,
        path_and_query: &str,
        headers: &[(String, String)],
        body: Option<&str>,
    ) -> Result<Response, HttpError> {
        let mut conn = match checkout(endpoint) {
            Some(conn) => conn,
            None => self.connect(endpoint)?,
        };
        if conn.io_timeout != self.io_timeout {
            set_io_timeout(&conn.stream, self.io_timeout).map_err(io_err)?;
            conn.io_timeout = self.io_timeout;
        }

        let mut req = format!(
            "{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\n",
            endpoint.host_for_wire()
        );
        for (name, value) in headers {
            req.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            req.push_str(&format!(
                "Content-Type: application/strategic-merge-patch+json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        req.push_str("\r\n");
        if let Some(body) = body {
            req.push_str(body);
        }
        conn.stream.write_all(req.as_bytes()).map_err(io_err)?;
        let (resp, reusable) = read_response(&mut conn.stream)?;
        if reusable {
            checkin(conn);
        }
        Ok(resp)
    }

    fn connect(&self, endpoint: &Endpoint) -> Result<Conn, HttpError> {
        let connect_err = |e: std::io::Error| HttpError::Connect(e.to_string());
        let addr = endpoint
            .addr()
            .to_socket_addrs()
            .map_err(connect_err)?
            .next()
            .ok_or_else(|| HttpError::Connect("no address resolved".into()))?;
        let stream =
            TcpStream::connect_timeout(&addr, self.connect_timeout).map_err(connect_err)?;
        // Every message goes out in one write; Nagle would only hold a
        // kept-alive connection's next one back.
        stream
            .set_nodelay(true)
            .and_then(|()| set_io_timeout(&stream, self.io_timeout))
            .map_err(connect_err)?;
        Ok(Conn {
            endpoint: endpoint.clone(),
            stream,
            io_timeout: self.io_timeout,
            idle_since: Instant::now(),
        })
    }
}

fn set_io_timeout(stream: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))
}

fn io_err(e: std::io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e.to_string()),
    }
}

/// Bytes both readers ask for at a time while they look for the end of
/// a head: a whole Prometheus or Kubernetes answer fits.
const READ_CHUNK: usize = 8 * 1024;

/// Appends up to [`READ_CHUNK`] bytes from `r` to `buf`; `Ok(0)` is
/// end of stream.
fn read_more(r: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let len = buf.len();
    buf.resize(len + READ_CHUNK, 0);
    let read = loop {
        match r.read(&mut buf[len..]) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            read => break read,
        }
    };
    buf.truncate(len + read.as_ref().map_or(0, |&n| n));
    read
}

/// Offset of the blank line that ends a head, searching from `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p)
}

/// True when a comma-separated header value lists `token`.
fn has_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

fn too_long() -> HttpError {
    HttpError::Malformed(format!("response exceeds {MAX_RESPONSE_BYTES} bytes"))
}

/// Reads one response off `r`. The flag says whether the connection can
/// carry another request: an HTTP/1.1 answer framed by
/// `Content-Length`, without `Connection: close`, with nothing read
/// past its body. A body without `Content-Length` runs to the close.
fn read_response(r: &mut impl Read) -> Result<(Response, bool), HttpError> {
    // Framing is resolved on the raw bytes, and only the final body is
    // UTF-8-decoded: a Content-Length that cuts a multibyte sequence
    // must surface as a typed error, not a char-boundary panic.
    let mut raw = Vec::new();
    let head_end = loop {
        let searched = raw.len().saturating_sub(3);
        match read_more(r, &mut raw).map_err(io_err)? {
            0 if raw.is_empty() => {
                return Err(HttpError::Malformed("closed without a response".into()))
            }
            0 => return Err(HttpError::Malformed("no header/body separator".into())),
            _ => {}
        }
        if let Some(end) = find_head_end(&raw, searched) {
            break end;
        }
        if raw.len() > MAX_RESPONSE_BYTES {
            return Err(too_long());
        }
    };
    let (status, length, mut reusable) = {
        let head = std::str::from_utf8(&raw[..head_end])
            .map_err(|_| HttpError::Malformed("headers are not UTF-8".into()))?;
        let mut lines = head.lines();
        let status_line = lines.next().unwrap_or("");
        let bad_status_line = || HttpError::Malformed(format!("bad status line \"{status_line}\""));
        let mut parts = status_line.split_whitespace();
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(bad_status_line());
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad_status_line)?;
        let mut length = None;
        let mut reusable = version == "HTTP/1.1";
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                let want: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
                length = Some(want);
            } else if name.eq_ignore_ascii_case("connection") {
                reusable &= !has_token(value, "close");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Neither framed nor ended by a close: reading to EOF
                // would wait out the timeout on a kept-alive connection.
                return Err(HttpError::Malformed(
                    "Transfer-Encoding is not supported".into(),
                ));
            }
        }
        (status, length, reusable)
    };
    let body_start = head_end + 4;
    raw.drain(..body_start);
    match length {
        Some(want) => {
            if body_start.saturating_add(want) > MAX_RESPONSE_BYTES {
                return Err(too_long());
            }
            if raw.len() < want {
                // The rest of a known-length body goes straight into
                // the response buffer.
                raw.reserve_exact(want - raw.len());
                let rest = (want - raw.len()) as u64;
                r.by_ref()
                    .take(rest)
                    .read_to_end(&mut raw)
                    .map_err(io_err)?;
                if raw.len() < want {
                    return Err(HttpError::Malformed(format!(
                        "body truncated: {} of {want} bytes",
                        raw.len()
                    )));
                }
            }
            reusable &= raw.len() == want;
            raw.truncate(want);
        }
        None => {
            reusable = false;
            let room = (MAX_RESPONSE_BYTES + 1).saturating_sub(body_start + raw.len());
            let read = r.by_ref().take(room as u64).read_to_end(&mut raw);
            if body_start + raw.len() > MAX_RESPONSE_BYTES {
                return Err(too_long());
            }
            read.map_err(io_err)?;
        }
    }
    let body =
        String::from_utf8(raw).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok((Response { status, body }, reusable))
}

/// Percent-encodes a query-string value (RFC 3986 unreserved set).
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decodes a percent-encoded query-string value (`+` as space).
pub fn urldecode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'%' && i + 2 < bytes.len() {
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
            if let Ok(v) = u8::from_str_radix(hex, 16) {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(if b == b'+' { b' ' } else { b });
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One request as the [`Server`] hands it to its handler: already read
/// off the wire in full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `PATCH`, …).
    pub method: String,
    /// Path and query string, as on the request line.
    pub path: String,
    /// The `Authorization` header's value, when sent.
    pub authorization: Option<String>,
    /// The `Content-Length`-framed body (empty without one).
    pub body: String,
}

/// A handler's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Reply {
    /// A `text/plain` reply.
    pub fn text(status: u16, body: impl Into<String>) -> Reply {
        Reply {
            status,
            content_type: "text/plain",
            body: body.into(),
        }
    }
}

/// Longest request head the server reads before answering 400.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Longest request body the server reads before answering 400.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-connection read/write timeout: a connection with no request for
/// this long is closed, and a stalled peer holds its thread no longer.
const SERVER_IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Most connections a server serves at once; the next one is answered
/// 503 and closed.
const MAX_CONNECTIONS: usize = 64;

type Handler = Box<dyn FnMut(&Request) -> Option<Reply> + Send>;

/// What the accept thread and the connection threads share.
struct Shared {
    /// Behind one lock: requests are handled one at a time, in the
    /// order their connections reach it.
    handler: Mutex<Handler>,
    /// The connections being served.
    open: Mutex<Vec<Open>>,
    accepted: AtomicU64,
    stop: AtomicBool,
}

struct Open {
    id: u64,
    /// A second handle on the socket, to shut it down from `Drop`.
    stream: TcpStream,
    thread: JoinHandle<()>,
}

struct Running {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        // The accept thread checks the flag per accepted connection:
        // wake it with one, then wait for it, so the port is closed by
        // the time the last handle is gone. A wake-up that cannot
        // connect leaves the thread detached rather than this drop
        // waiting on it for ever.
        self.shared.stop.store(true, Ordering::SeqCst);
        if TcpStream::connect(self.addr).is_ok() {
            if let Some(thread) = self.accept.take() {
                let _ = thread.join();
            }
        }
        // Then end every open connection and wait for its thread, so
        // that no client's pooled connection is served by a stopped
        // server. Every update leaves the list valid, so a poisoned
        // lock still holds it.
        let open = std::mem::take(
            &mut *self
                .shared
                .open
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for conn in &open {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for conn in open {
            let _ = conn.thread.join();
        }
    }
}

/// Handle to a running HTTP/1.1 server. Clones share the server; it
/// stops, its port closes and its open connections are shut, when the
/// last handle drops.
#[derive(Clone)]
pub struct Server {
    running: Arc<Running>,
}

impl Server {
    /// Binds `addr` (port `0` for an ephemeral one) and serves requests
    /// on threads named `thread_name`: one accepts, and one per open
    /// connection serves that connection's requests in order, keeping
    /// it open between them (HTTP/1.1 keep-alive). Each request is read
    /// in full, then passed to `handler`, one request at a time across
    /// all connections; `None` from the handler closes the connection
    /// without a reply. A request that cannot be read is answered 400
    /// without reaching the handler, and its connection closed.
    pub fn serve(
        addr: &str,
        thread_name: &str,
        handler: impl FnMut(&Request) -> Option<Reply> + Send + 'static,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler: Mutex::new(Box::new(handler)),
            open: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let name = thread_name.to_string();
        let accepting = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || accept_loop(&listener, &accepting, &name))?;
        Ok(Server {
            running: Arc::new(Running {
                addr,
                shared,
                accept: Some(accept),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.running.addr
    }

    /// TCP connections accepted so far, those refused at the cap
    /// included.
    pub fn connections(&self) -> u64 {
        self.running.shared.accepted.load(Ordering::SeqCst)
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, name: &str) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let id = shared.accepted.fetch_add(1, Ordering::SeqCst);
        let _ = stream.set_nodelay(true);
        let _ = set_io_timeout(&stream, SERVER_IO_TIMEOUT);
        let mut open = shared.open.lock().expect("connection list poisoned");
        if open.len() >= MAX_CONNECTIONS {
            drop(open);
            write_reply(&stream, &Reply::text(503, "too many connections"), true);
            continue;
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let serving = Arc::clone(shared);
        // Registered under the lock the thread takes to deregister, so
        // it cannot leave the list before it is on it.
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                serve_connection(&stream, &serving);
                if let Ok(mut open) = serving.open.lock() {
                    open.retain(|conn| conn.id != id);
                }
            });
        if let Ok(thread) = thread {
            open.push(Open {
                id,
                stream: handle,
                thread,
            });
        }
    }
}

/// Serves one connection's requests until either side closes it.
fn serve_connection(stream: &TcpStream, shared: &Shared) {
    let mut reader = RequestReader::new(stream);
    loop {
        let (reply, close) = match reader.next_request() {
            Next::Closed => return,
            Next::Bad => (Reply::text(400, "bad request"), true),
            Next::Request(req, close) => {
                let Ok(mut handler) = shared.handler.lock() else {
                    return;
                };
                match handler(&req) {
                    Some(reply) => (reply, close),
                    None => return,
                }
            }
        };
        if !write_reply(stream, &reply, close) || close {
            return;
        }
    }
}

/// A connection's read side. Requests are cut from `buf`, which keeps
/// whatever was read past one request for the next, so pipelined
/// requests are served in order.
struct RequestReader<R> {
    src: R,
    buf: Vec<u8>,
}

/// What a connection carries next.
#[derive(Debug, PartialEq)]
enum Next {
    /// A whole request, and whether the client asked to close after it.
    Request(Request, bool),
    /// The peer closed, or went quiet, between requests.
    Closed,
    /// Bytes that are not a well-formed, bounded HTTP/1.x request.
    Bad,
}

impl<R: Read> RequestReader<R> {
    fn new(src: R) -> Self {
        RequestReader {
            src,
            buf: Vec::new(),
        }
    }

    fn next_request(&mut self) -> Next {
        let mut searched = 0;
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf, searched) {
                break end;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Next::Bad;
            }
            searched = self.buf.len().saturating_sub(3);
            match read_more(&mut self.src, &mut self.buf) {
                Ok(n) if n > 0 => {}
                _ if self.buf.is_empty() => return Next::Closed,
                _ => return Next::Bad,
            }
        };
        let Some((mut req, close, content_length)) = parse_request_head(&self.buf[..head_end])
        else {
            return Next::Bad;
        };
        let end = head_end + 4 + content_length;
        while self.buf.len() < end {
            if !matches!(read_more(&mut self.src, &mut self.buf), Ok(n) if n > 0) {
                return Next::Bad;
            }
        }
        let body = String::from_utf8(self.buf[head_end + 4..end].to_vec());
        self.buf.drain(..end);
        match body {
            Ok(body) => {
                req.body = body;
                Next::Request(req, close)
            }
            Err(_) => Next::Bad,
        }
    }
}

/// A request head as the server uses it: the request with its body
/// still empty, whether the client asked to close after it, and the
/// body length. `None` for anything that is not a well-formed, bounded
/// HTTP/1.x head.
fn parse_request_head(head: &[u8]) -> Option<(Request, bool, usize)> {
    let head = std::str::from_utf8(head).ok()?;
    let mut lines = head.lines();
    let mut request_line = lines.next()?.split_whitespace();
    let method = request_line.next()?.to_string();
    let path = request_line.next()?.to_string();
    let version = request_line.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let mut close = version != "HTTP/1.1";
    let mut content_length = 0usize;
    let mut authorization = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("authorization") {
            authorization = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            close |= has_token(value, "close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return None;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let req = Request {
        method,
        path,
        authorization,
        body: String::new(),
    };
    Some((req, close, content_length))
}

/// Writes `reply`, announcing `Connection: close` when the server will
/// close after it. False when the peer is gone.
fn write_reply(mut stream: &TcpStream, reply: &Reply, close: bool) -> bool {
    let reason = match reply.status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "Connection: close\r\n" } else { "" };
    let head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{connection}\r\n",
        reply.status,
        reply.content_type,
        reply.body.len()
    );
    // A peer that already gave up (client timeout) is not our problem.
    stream.write_all((head + &reply.body).as_bytes()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::mpsc;

    #[test]
    fn endpoint_parses_with_and_without_scheme() {
        let e = Endpoint::parse("http://prom.local:9090").unwrap();
        assert_eq!(e, Endpoint::parse("prom.local:9090/").unwrap());
        assert_eq!(e.port, 9090);
        assert!(Endpoint::parse("https://prom:9090").is_err());
        assert!(Endpoint::parse("no-port").is_err());
        assert!(Endpoint::parse(":9090").is_err());
    }

    #[test]
    fn endpoint_handles_ipv6_literals() {
        let e = Endpoint::parse("http://[::1]:9090").unwrap();
        assert_eq!(e.host, "::1");
        assert_eq!(e.port, 9090);
        assert_eq!(e.addr(), "[::1]:9090");
        assert_eq!(
            Endpoint::parse("[fe80::1]:8080/").unwrap(),
            Endpoint {
                host: "fe80::1".into(),
                port: 8080
            }
        );
        // Unbracketed IPv6 is ambiguous (which colon starts the
        // port?) — rejected with a pointer at the bracketed form.
        let err = Endpoint::parse("http://::1:9090").unwrap_err();
        assert!(err.contains("[addr]:port"), "unhelpful error: {err}");
        assert!(Endpoint::parse("http://[::1]").is_err());
        assert!(Endpoint::parse("http://[::1:9090").is_err());
        // IPv4 and hostnames keep their bare form on the wire.
        let v4 = Endpoint::parse("127.0.0.1:80").unwrap();
        assert_eq!(v4.addr(), "127.0.0.1:80");
    }

    #[test]
    fn url_encoding_round_trips_promql() {
        let q = r#"rate(container_cpu_usage_seconds_total{namespace="pema"}[8s])"#;
        assert_eq!(urldecode(&urlencode(q)), q);
        assert_eq!(urlencode(" "), "%20");
        assert_eq!(urldecode("a+b%2Fc"), "a b/c");
    }

    /// Bytes as a peer sends them, then closes (`eof`) or resets the
    /// connection.
    struct Wire<'a> {
        bytes: &'a [u8],
        eof: bool,
    }

    impl Read for Wire<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() && !self.eof {
                return Err(ErrorKind::ConnectionReset.into());
            }
            self.bytes.read(buf)
        }
    }

    fn read_off(bytes: &[u8], eof: bool) -> Result<(Response, bool), HttpError> {
        read_response(&mut Wire { bytes, eof })
    }

    fn parse_response(bytes: &[u8], eof: bool) -> Result<Response, HttpError> {
        read_off(bytes, eof).map(|(resp, _)| resp)
    }

    #[test]
    fn response_parsing_rejects_garbage_and_truncation() {
        assert!(parse_response(b"not http at all\r\n\r\n", true).is_err());
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(parse_response(short, true).is_err());
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA";
        let ok = parse_response(ok, true).unwrap();
        assert_eq!(ok.body, "ok");
        assert!(ok.is_success());
        let unframed = b"HTTP/1.1 503 Unavailable\r\n\r\nbody";
        let err = parse_response(unframed, true).unwrap();
        assert_eq!(err.status, 503);
        assert!(!err.is_success());
        // The same bytes from a stream that broke instead of closing:
        // nothing says the body is whole.
        assert!(parse_response(unframed, false).is_err());
    }

    #[test]
    fn only_a_response_framed_to_its_last_byte_leaves_a_reusable_connection() {
        let reusable = |raw: &[u8]| read_off(raw, false).map(|(_, reusable)| reusable);
        assert_eq!(
            reusable(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"),
            Ok(true)
        );
        for raw in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA"[..],
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 2\r\n\r\nok",
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ] {
            assert_eq!(reusable(raw), Ok(false), "{}", String::from_utf8_lossy(raw));
        }
        // Without Content-Length only a close ends the body.
        assert_eq!(
            read_off(b"HTTP/1.1 200 OK\r\n\r\nok", true).map(|(_, reusable)| reusable),
            Ok(false)
        );
        assert!(matches!(
            reusable(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn content_length_cutting_a_multibyte_char_is_an_error_not_a_panic() {
        // "é" is two bytes (C3 A9); a Content-Length of 2 slices the
        // sequence in half. The old String::truncate path panicked on
        // the non-char-boundary; the byte-level path reports Malformed.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nh\xC3\xA9";
        assert_eq!(
            parse_response(raw, true),
            Err(HttpError::Malformed("body is not UTF-8".into()))
        );
        // A boundary-respecting truncation of the same body is fine.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nh\xC3\xA9X";
        assert_eq!(parse_response(raw, true).unwrap().body, "h\u{e9}");
    }

    fn endpoint(addr: SocketAddr) -> Endpoint {
        Endpoint {
            host: addr.ip().to_string(),
            port: addr.port(),
        }
    }

    fn get(addr: SocketAddr, path: &str) -> Result<Response, HttpError> {
        HttpClient::default().request(&endpoint(addr), "GET", path, &[], None)
    }

    fn echo(req: &Request) -> Option<Reply> {
        Some(Reply::text(200, format!("{} {}", req.method, req.path)))
    }

    #[test]
    fn a_reply_sent_before_a_reset_is_still_delivered() {
        // A peer that answers and closes with the request unread turns
        // its close into a TCP RST. `peek` holds the reply back until
        // the request has arrived, so the reset is certain.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.peek(&mut [0u8; 1]).unwrap();
            stream
                .write_all(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\noops")
                .unwrap();
        });
        let resp = get(addr, "/").expect("the complete response must survive the reset");
        assert_eq!((resp.status, resp.body.as_str()), (500, "oops"));
        peer.join().unwrap();
    }

    #[test]
    fn a_peer_that_never_stops_sending_is_an_error_not_an_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.peek(&mut [0u8; 1]).unwrap();
            stream.write_all(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
            let chunk = [b'x'; 64 * 1024];
            let mut sent = 0usize;
            // Ends when the client hangs up on us.
            while stream.write_all(&chunk).is_ok() {
                sent += chunk.len();
            }
            sent
        });
        let err = get(addr, "/").expect_err("an endless body must not be a response");
        assert_eq!(
            err,
            HttpError::Malformed(format!("response exceeds {MAX_RESPONSE_BYTES} bytes"))
        );
        // The client stopped reading at the cap; what the peer managed
        // to send beyond it sat in socket buffers.
        let sent = peer.join().unwrap();
        assert!(sent < 2 * MAX_RESPONSE_BYTES, "client kept reading: {sent}");
    }

    #[test]
    fn server_hands_the_handler_whole_requests() {
        let srv = Server::serve("127.0.0.1:0", "test-http", |req| match req.path.as_str() {
            "/drop" => None,
            _ => Some(Reply::text(
                200,
                format!(
                    "{} {} {:?} {}",
                    req.method, req.path, req.authorization, req.body
                ),
            )),
        })
        .unwrap();
        let ep = endpoint(srv.local_addr());
        let auth = [("Authorization".to_string(), "Bearer t".to_string())];
        let body = "x".repeat(5000); // spans several reads
        let resp = HttpClient::default()
            .request(&ep, "PATCH", "/a?b=c", &auth, Some(&body))
            .unwrap();
        assert_eq!(resp.body, format!("PATCH /a?b=c Some(\"Bearer t\") {body}"));
        // No reply: an orderly close with nothing in it, not a reset.
        assert!(matches!(
            get(srv.local_addr(), "/drop"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn server_answers_400_to_what_is_not_a_request() {
        let srv = Server::serve("127.0.0.1:0", "test-http", |_| {
            panic!("an unreadable request must not reach the handler")
        })
        .unwrap();
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        stream.write_all(b"\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        assert_eq!(parse_response(&raw, true).unwrap().status, 400);
    }

    #[test]
    fn server_port_is_closed_once_the_last_handle_drops() {
        let srv = Server::serve("127.0.0.1:0", "test-http", |_| None).unwrap();
        let addr = srv.local_addr();
        let clone = srv.clone();
        drop(srv);
        assert!(matches!(get(addr, "/"), Err(HttpError::Malformed(_))));
        drop(clone);
        assert!(matches!(get(addr, "/"), Err(HttpError::Connect(_))));
    }

    #[test]
    fn one_connection_carries_every_request_of_a_thread() {
        let srv = Server::serve("127.0.0.1:0", "test-http", echo).unwrap();
        for i in 0..5 {
            let path = format!("/{i}");
            assert_eq!(
                get(srv.local_addr(), &path).unwrap().body,
                format!("GET {path}")
            );
        }
        assert_eq!(srv.connections(), 1);
    }

    #[test]
    fn two_pipelined_requests_in_one_write_are_both_answered_in_order() {
        let srv = Server::serve("127.0.0.1:0", "test-http", echo).unwrap();
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        stream
            .write_all(
                concat!(
                    "GET /one HTTP/1.1\r\nHost: x\r\n\r\n",
                    "GET /two HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
                )
                .as_bytes(),
            )
            .unwrap();
        // The second asked to close, so the server closes after it.
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (first, second) = raw.split_at(
            raw.find("HTTP/1.1 200")
                .map(|_| raw[1..].find("HTTP/1.1 200").expect("two responses") + 1)
                .unwrap(),
        );
        assert!(first.ends_with("\r\n\r\nGET /one"), "{first:?}");
        assert!(second.contains("Connection: close\r\n"), "{second:?}");
        assert!(second.ends_with("\r\n\r\nGET /two"), "{second:?}");
    }

    #[test]
    fn bytes_past_content_length_are_returned_but_the_connection_is_not_pooled() {
        // A peer that over-sends on every connection it accepts, and
        // keeps them all open.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut held = Vec::new();
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = RequestReader::new(stream.try_clone().unwrap());
                assert!(matches!(reader.next_request(), Next::Request(..)));
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA")
                    .unwrap();
                held.push(stream);
            }
            held
        });
        // Had the first connection been reused, the second answer would
        // start with "EXTRA".
        for _ in 0..2 {
            assert_eq!(get(addr, "/").unwrap().body, "ok");
        }
        assert_eq!(peer.join().unwrap().len(), 2);
    }

    #[test]
    fn a_late_reply_after_a_timeout_is_never_the_next_answer() {
        let (release, released) = mpsc::channel::<()>();
        let srv = Server::serve("127.0.0.1:0", "test-http", move |req| {
            if req.path == "/slow" {
                released.recv().expect("released");
            }
            echo(req)
        })
        .unwrap();
        let http = HttpClient {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_millis(100),
        };
        let ep = endpoint(srv.local_addr());
        assert_eq!(
            http.request(&ep, "GET", "/slow", &[], None),
            Err(HttpError::Timeout)
        );
        // The late answer is written to the first connection before
        // the next request can reach the handler.
        release.send(()).unwrap();
        let next = http.request(&ep, "GET", "/next", &[], None).unwrap();
        assert_eq!(next.body, "GET /next");
        assert_eq!(srv.connections(), 2);
    }

    #[test]
    fn a_connection_pooled_against_a_dropped_server_is_never_served() {
        let srv = Server::serve("127.0.0.1:0", "test-http", echo).unwrap();
        let addr = srv.local_addr();
        assert_eq!(get(addr, "/").unwrap().body, "GET /");
        // Dropping the server shuts the pooled connection down too: the
        // next request finds the port closed instead of a dead socket.
        drop(srv);
        assert!(matches!(get(addr, "/"), Err(HttpError::Connect(_))));
    }

    #[test]
    fn at_the_connection_cap_the_extra_client_gets_503() {
        let srv = Server::serve("127.0.0.1:0", "test-http", echo).unwrap();
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
                stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
                let (resp, reusable) = read_response(&mut stream).unwrap();
                assert_eq!((resp.status, reusable), (200, true));
                stream
            })
            .collect();
        let refused = get(srv.local_addr(), "/").unwrap();
        assert_eq!(refused.status, 503);
        assert_eq!(srv.connections(), MAX_CONNECTIONS as u64 + 1);
        // Dropping the server shuts every open connection down rather
        // than waiting for them to idle out.
        let t0 = Instant::now();
        drop(srv);
        assert!(t0.elapsed() < SERVER_IO_TIMEOUT / 5, "{:?}", t0.elapsed());
        drop(held);
    }

    /// Requests a server reads: a GET, a PATCH with a body and an
    /// HTTP/1.0 scrape.
    const REQUESTS: [&str; 3] = [
        "GET /api/v1/query_range?query=up&start=1&end=9&step=8 HTTP/1.1\r\nHost: h\r\n\r\n",
        "PATCH /apis/apps/v1/namespaces/pema/deployments/fe HTTP/1.1\r\nHost: h\r\n\
         Authorization: Bearer t\r\nContent-Length: 11\r\n\r\n{\"kind\":1}\n",
        "GET /metrics HTTP/1.0\r\n\r\n",
    ];

    /// Responses a client reads: framed, closing, and unframed.
    const RESPONSES: [&str; 3] = [
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 12\r\n\r\n{\"a\":[1,2]}\n",
        "HTTP/1.1 500 Internal Server Error\r\nConnection: close\r\nContent-Length: 4\r\n\r\noops",
        "HTTP/1.0 200 OK\r\n\r\nto the end",
    ];

    /// `copies` of `base` back to back, then byte edits at positions
    /// taken modulo the length, then cut at `cut` modulo the length.
    fn mangle(base: &str, copies: usize, edits: &[(usize, u8)], cut: usize) -> Vec<u8> {
        let mut bytes = base.repeat(copies).into_bytes();
        for &(at, byte) in edits {
            let n = bytes.len();
            bytes[at % n] = byte;
        }
        let n = bytes.len();
        bytes.truncate(cut % (n + 1));
        bytes
    }

    #[test]
    fn the_request_reader_reads_every_request_of_a_stream() {
        let all: String = REQUESTS.concat();
        let mut reader = RequestReader::new(all.as_bytes());
        let mut got = Vec::new();
        while let Next::Request(req, close) = reader.next_request() {
            got.push((req.method, req.body, close));
        }
        assert_eq!(
            got,
            [
                ("GET".to_string(), String::new(), false),
                ("PATCH".to_string(), "{\"kind\":1}\n".to_string(), false),
                ("GET".to_string(), String::new(), true),
            ]
        );
        assert_eq!(reader.next_request(), Next::Closed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_request_reader_never_panics_on_mangled_input(
            kind in 0usize..3,
            copies in 1usize..4,
            edits in vec((0usize..1024, 0u8..=255), 0..4usize),
            cut in 0usize..1024,
        ) {
            let bytes = mangle(REQUESTS[kind], copies, &edits, cut);
            let mut reader = RequestReader::new(bytes.as_slice());
            let mut served = 0;
            while let Next::Request(..) = reader.next_request() {
                served += 1;
                // Each request consumes at least its blank line.
                prop_assert!(served * 4 <= bytes.len());
            }
            if edits.is_empty() && bytes.len() == REQUESTS[kind].len() * copies {
                prop_assert_eq!(served, copies);
            }
        }

        #[test]
        fn the_response_reader_never_panics_on_mangled_input(
            kind in 0usize..3,
            copies in 1usize..3,
            edits in vec((0usize..1024, 0u8..=255), 0..4usize),
            cut in 0usize..1024,
            eof in 0u32..2,
        ) {
            let bytes = mangle(RESPONSES[kind], copies, &edits, cut);
            let clean = edits.is_empty() && bytes.len() == RESPONSES[kind].len() * copies;
            match read_off(&bytes, eof == 1) {
                Ok((resp, reusable)) => {
                    prop_assert!(resp.body.len() <= bytes.len());
                    // Nothing was read past the body of a reusable one.
                    let head = find_head_end(&bytes, 0).expect("a response has a head") + 4;
                    prop_assert!(!reusable || head + resp.body.len() == bytes.len());
                }
                Err(e) => prop_assert!(!clean || kind != 0, "a clean response failed: {e}"),
            }
        }
    }
}
