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
//! Every request is its own connection (`Connection: close`), which
//! sidesteps keep-alive state and makes fault injection in tests exact:
//! one TCP accept == one request.
//!
//! [`Server`] is the matching other half: one accept thread, one
//! request per connection, and the request is read *in full* before the
//! handler runs — so whatever the handler answers (including nothing at
//! all), the connection closes with no unread bytes and the client sees
//! an orderly FIN instead of a TCP reset.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Blocking HTTP/1.1 client with per-request timeouts.
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

impl HttpClient {
    /// Issues one request and reads the full response.
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
        let addr = endpoint
            .addr()
            .to_socket_addrs()
            .map_err(|e| HttpError::Connect(e.to_string()))?
            .next()
            .ok_or_else(|| HttpError::Connect("no address resolved".into()))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
            .map_err(|e| HttpError::Connect(e.to_string()))?;
        stream
            .set_read_timeout(Some(self.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .map_err(|e| HttpError::Connect(e.to_string()))?;

        let mut req = format!(
            "{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n",
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
        stream.write_all(req.as_bytes()).map_err(io_err)?;

        let mut raw = Vec::new();
        let read = (&stream)
            .take(MAX_RESPONSE_BYTES as u64 + 1)
            .read_to_end(&mut raw);
        if raw.len() > MAX_RESPONSE_BYTES {
            return Err(HttpError::Malformed(format!(
                "response exceeds {MAX_RESPONSE_BYTES} bytes"
            )));
        }
        match read {
            Ok(_) => parse_response(&raw, true),
            // A peer that answers and closes without reading the
            // request resets the connection; the response it sent
            // first is already in `raw`. Keep it when its
            // Content-Length shows it is whole.
            Err(e) => parse_response(&raw, false).map_err(|_| io_err(e)),
        }
    }
}

fn io_err(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e.to_string()),
    }
}

/// Parses the bytes of one response. `eof` says the peer closed the
/// stream in order; without it only a `Content-Length` can show that
/// the body is complete.
fn parse_response(raw: &[u8], eof: bool) -> Result<Response, HttpError> {
    // Framing is resolved on the raw bytes, and only the final body
    // slice is UTF-8-decoded: a Content-Length that cuts a multibyte
    // sequence must surface as a typed error, not a char-boundary
    // panic inside String::truncate.
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| HttpError::Malformed("no header/body separator".into()))?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| HttpError::Malformed("headers are not UTF-8".into()))?;
    let mut body = &raw[header_end + 4..];
    let status_line = head.lines().next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "bad status line \"{status_line}\""
        )));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line \"{status_line}\"")))?;
    // `Connection: close` framing: trust Content-Length when present
    // (the body may be truncated by a fault-injecting peer), otherwise
    // read-to-EOF already gave us everything.
    let mut framed = eof;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let want: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
                if body.len() < want {
                    return Err(HttpError::Malformed(format!(
                        "body truncated: {} of {want} bytes",
                        body.len()
                    )));
                }
                body = &body[..want];
                framed = true;
            }
        }
    }
    if !framed {
        return Err(HttpError::Malformed("stream broke mid-body".into()));
    }
    let body = std::str::from_utf8(body)
        .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?
        .to_string();
    Ok(Response { status, body })
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
/// Per-connection read/write timeout: a stalled peer cannot park the
/// (single) serving thread for longer.
const SERVER_IO_TIMEOUT: Duration = Duration::from_secs(5);

struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Running {
    fn drop(&mut self) {
        // The serving thread checks the flag per accepted connection:
        // wake it with one, then wait for it, so the port is closed by
        // the time the last handle is gone. A wake-up that cannot
        // connect leaves the thread detached rather than this drop
        // waiting on it for ever.
        self.stop.store(true, Ordering::SeqCst);
        if TcpStream::connect(self.addr).is_ok() {
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Handle to a running HTTP/1.1 server. Clones share the server; it
/// stops, and its port closes, when the last handle drops.
#[derive(Clone)]
pub struct Server {
    running: Arc<Running>,
}

impl Server {
    /// Binds `addr` (port `0` for an ephemeral one) and serves requests
    /// on one thread named `thread_name`, one request per connection
    /// (`Connection: close`). Each request is read in full, then passed
    /// to `handler`; `None` from the handler closes the connection
    /// without a reply. A request that cannot be read is answered 400
    /// without reaching the handler.
    pub fn serve(
        addr: &str,
        thread_name: &str,
        mut handler: impl FnMut(&Request) -> Option<Reply> + Send + 'static,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stopped.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let _ = stream.set_read_timeout(Some(SERVER_IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(SERVER_IO_TIMEOUT));
                    let reply = match read_request(&mut stream) {
                        Some(req) => handler(&req),
                        None => Some(Reply::text(400, "bad request")),
                    };
                    if let Some(reply) = reply {
                        write_reply(&mut stream, &reply);
                    }
                }
            })?;
        Ok(Server {
            running: Arc::new(Running {
                addr,
                stop,
                thread: Some(thread),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.running.addr
    }
}

/// Reads one request to the end of its `Content-Length` body. `None`
/// for anything that is not a well-formed, bounded HTTP/1.1 request.
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return None;
        }
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.lines();
    let mut request_line = lines.next()?.split_whitespace();
    let method = request_line.next()?.to_string();
    let path = request_line.next()?.to_string();
    let mut content_length = 0usize;
    let mut authorization = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok()?;
        } else if name.eq_ignore_ascii_case("authorization") {
            authorization = Some(value.trim().to_string());
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Some(Request {
        method,
        path,
        authorization,
        body: String::from_utf8(body).ok()?,
    })
}

fn write_reply(stream: &mut TcpStream, reply: &Reply) {
    let reason = match reply.status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reply.status,
        reply.content_type,
        reply.body.len()
    );
    // A peer that already gave up (client timeout) is not our problem.
    let _ = stream.write_all((head + &reply.body).as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
