//! Minimal HTTP/1.1 framing over a byte stream — just enough for the wire
//! protocol, shared by both halves.
//!
//! Bodies are framed by `Content-Length` only. No chunked encoding, no
//! pipelining, no TLS: the edge is a protocol boundary, not a web server,
//! and the simplest framing is the easiest to prove byte-identical under
//! fault injection — a truncated body is detected by `read_exact`, not by a
//! parser heuristic. A message that frames its body another way as well —
//! two `Content-Length` values that differ, or any `Transfer-Encoding` —
//! is a framing error, not a guess at which framing the peer meant.
//!
//! A connection carries one exchange after another (`Conn`). It ends
//! when either side says `connection: close` (after the exchange that said
//! so), when the peer hangs up between exchanges, and on any framing error
//! or missed deadline — a stream that may be out of step is never read
//! again. Every message leaves as **one** `write_all` of one buffer on a
//! `TCP_NODELAY` socket: a head and a body written separately are two small
//! segments, and on a reused connection Nagle holds the second until the
//! peer's delayed ACK of the first, ~40 ms a call. That buffer is written
//! in place and allocated once at its final size: start line, headers and
//! `Content-Length` digits go straight into it, then the body. Reading is
//! in place too: a head's lines are parsed where they lie in the
//! connection's buffered reader, and only the names and values a
//! [`Request`] or [`Response`] keeps are copied out. The four one-shot
//! functions ([`read_request`], [`write_request`], [`read_response`],
//! [`write_response`]) are the same framing over any `Read`/`Write`, and
//! always announce `connection: close`.

use crate::json::digits;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted header block and body (1 MiB each) — a wire-level
/// guard so a malformed peer cannot make the edge allocate unboundedly.
const MAX_BYTES: usize = 1 << 20;

/// A transport-level failure: the peer closed early, sent malformed
/// framing, or exceeded the size guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Human-readable description of the framing failure.
    pub reason: String,
}

impl HttpError {
    fn new(reason: impl Into<String>) -> Self {
        HttpError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http framing error: {}", self.reason)
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::new(format!("io: {e}"))
    }
}

/// A parsed request: method, target (path + optional query string), the
/// headers the protocol cares about, and the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercase (`GET`, `POST`).
    pub method: String,
    /// The request target, e.g. `/site/mutations?since=3`.
    pub target: String,
    /// Headers as lowercased `(name, value)` pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The target's path, without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The value of one query-string parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let qs = self.target.split_once('?')?.1;
        qs.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// A response: status code, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Extra headers as `(name, value)` pairs (`Content-Length`, and
    /// `Connection: close` where it applies, are added when it is framed).
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// Attach one header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_ascii_lowercase(), value));
        self
    }

    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// The first of `headers` with this (case-insensitive) name, if any.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let named = headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name));
    named.map(|(_, v)| v.as_str())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Hand the next line to `parse` as text without its trailing whitespace,
/// and say how many bytes it took; `None` at EOF before any byte. The line
/// is parsed where it lies in the reader's buffer: only one that straddles
/// a refill is gathered into `spill` first. A line with no end is refused
/// at the size guard, not when memory runs out; EOF ends a line as `\n`
/// does.
fn next_line<R: BufRead, T>(
    reader: &mut R,
    spill: &mut Vec<u8>,
    parse: impl FnOnce(&str) -> Result<T, HttpError>,
) -> Result<Option<(T, usize)>, HttpError> {
    let text = |line: &[u8]| match std::str::from_utf8(line) {
        Ok(line) => parse(line.trim_end()),
        Err(_) => Err(HttpError::new("line is not UTF-8")),
    };
    spill.clear();
    loop {
        let buf = reader.fill_buf()?;
        let (take, ended) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (buf.len(), buf.is_empty()),
        };
        if spill.len() + take > MAX_BYTES {
            return Err(HttpError::new("line too long"));
        }
        if ended && spill.is_empty() {
            if take == 0 {
                return Ok(None);
            }
            let parsed = text(&buf[..take]);
            reader.consume(take);
            return parsed.map(|t| Some((t, take)));
        }
        spill.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if ended {
            return text(spill).map(|t| Some((t, spill.len())));
        }
    }
}

/// Whether a header block ends its connection after this exchange.
pub(crate) fn says_close(headers: &[(String, String)]) -> bool {
    let close = |(name, value): &(String, String)| {
        name == "connection" && value.eq_ignore_ascii_case("close")
    };
    headers.iter().any(close)
}

/// Read one request from the stream. A clean EOF before any byte returns
/// `Ok(None)` (the peer connected and went away — the accept loop's
/// shutdown nudge does exactly this).
pub fn read_request<R: Read>(stream: R) -> Result<Option<Request>, HttpError> {
    request_from(&mut BufReader::new(stream))
}

pub(crate) fn request_from<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut spill = Vec::new();
    let start = next_line(reader, &mut spill, |line| {
        let mut parts = line.splitn(3, ' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| HttpError::new("empty request line"))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| HttpError::new("request line missing target"))?
            .to_string();
        Ok((method, target))
    })?;
    let Some(((method, target), _)) = start else {
        return Ok(None);
    };
    let (headers, content_length) = read_headers(reader, &mut spill)?;
    let body = read_body(reader, content_length)?;
    Ok(Some(Request {
        method,
        target,
        headers,
        body,
    }))
}

/// Read one response from the stream. An EOF before the status line — or a
/// body shorter than its `Content-Length` — is a framing error: the
/// client half maps it to a *transient* server failure.
pub fn read_response<R: Read>(stream: R) -> Result<Response, HttpError> {
    response_from(&mut BufReader::new(stream))
}

pub(crate) fn response_from<R: BufRead>(reader: &mut R) -> Result<Response, HttpError> {
    let mut spill = Vec::new();
    let start = next_line(reader, &mut spill, |line| {
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::new("not an HTTP/1.x response"));
        }
        parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| HttpError::new("bad status code"))
    })?;
    let Some((status, _)) = start else {
        return Err(HttpError::new("connection closed before status line"));
    };
    let (headers, content_length) = read_headers(reader, &mut spill)?;
    let body = read_body(reader, content_length)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

type Headers = Vec<(String, String)>;

/// Read the header block: each name lowercased, each value trimmed, and
/// the body's length. The body is framed by `Content-Length` alone, so a
/// message that frames it two ways — two lengths that differ, or any
/// `Transfer-Encoding` — is refused: read either way, the next message
/// would start somewhere the peer did not mean it to.
fn read_headers<R: BufRead>(
    reader: &mut R,
    spill: &mut Vec<u8>,
) -> Result<(Headers, usize), HttpError> {
    let mut headers = Vec::new();
    let mut content_length = None;
    let mut total = 0usize;
    loop {
        let header = next_line(reader, spill, |line| {
            if line.is_empty() {
                return Ok(None);
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::new("malformed header line"))?;
            Ok(Some((
                name.trim().to_ascii_lowercase(),
                value.trim().to_string(),
            )))
        })?;
        let Some((header, len)) = header else {
            return Err(HttpError::new("connection closed inside headers"));
        };
        total += len;
        if total > MAX_BYTES {
            return Err(HttpError::new("header block too large"));
        }
        let Some((name, value)) = header else {
            return Ok((headers, content_length.unwrap_or(0)));
        };
        match name.as_str() {
            "content-length" => {
                let length = value
                    .parse()
                    .map_err(|_| HttpError::new("bad content-length"))?;
                if length > MAX_BYTES {
                    return Err(HttpError::new("body too large"));
                }
                if content_length.is_some_and(|first| first != length) {
                    return Err(HttpError::new("conflicting content-length"));
                }
                content_length = Some(length);
            }
            "transfer-encoding" => {
                return Err(HttpError::new("transfer-encoding is not supported"));
            }
            _ => {}
        }
        headers.push((name, value));
    }
}

fn read_body<R: Read>(reader: &mut R, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|_| HttpError::new("body shorter than content-length"))?;
    Ok(body)
}

/// One message as the bytes that go on the wire — start line (`start`,
/// with the `\r\n` it ends in), headers, `Content-Length`, `Connection:
/// close` if this exchange is the last, body — written straight into one
/// buffer allocated once at its final size.
fn frame(start: &[&str], headers: &[(String, String)], body: &[u8], close: bool) -> Vec<u8> {
    const LENGTH: &[u8] = b"content-length: ";
    const CLOSE: &[u8] = b"connection: close\r\n";
    let start_len: usize = start.iter().map(|part| part.len()).sum();
    let headers_len: usize = headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    // A length has at most 20 digits.
    let head_len = start_len + headers_len + LENGTH.len() + 20 + 2 + CLOSE.len() + 2;
    let mut frame = Vec::with_capacity(head_len + body.len());
    for part in start {
        frame.extend_from_slice(part.as_bytes());
    }
    for (name, value) in headers {
        frame.extend_from_slice(name.as_bytes());
        frame.extend_from_slice(b": ");
        frame.extend_from_slice(value.as_bytes());
        frame.extend_from_slice(b"\r\n");
    }
    frame.extend_from_slice(LENGTH);
    frame.extend_from_slice(digits(body.len() as u64, &mut [0; 20]).as_bytes());
    frame.extend_from_slice(b"\r\n");
    if close {
        frame.extend_from_slice(CLOSE);
    }
    frame.extend_from_slice(b"\r\n");
    frame.extend_from_slice(body);
    frame
}

pub(crate) fn request_frame(
    method: &str,
    target: &str,
    headers: &[(String, String)],
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let start = [method, " ", target, " HTTP/1.1\r\n"];
    frame(&start, headers, body, close)
}

pub(crate) fn response_frame(response: &Response, close: bool) -> Vec<u8> {
    let (status, mut buf) = (response.status, [0; 20]);
    let code = digits(status.into(), &mut buf);
    let start = ["HTTP/1.1 ", code, " ", status_text(status), "\r\n"];
    frame(&start, &response.headers, &response.body, close)
}

/// Write one request (with `Connection: close` and `Content-Length`).
pub fn write_request<W: Write>(
    mut stream: W,
    method: &str,
    target: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> Result<(), HttpError> {
    stream.write_all(&request_frame(method, target, headers, body, true))?;
    Ok(stream.flush()?)
}

/// Write one response (with `Connection: close` and `Content-Length`).
pub fn write_response<W: Write>(mut stream: W, response: &Response) -> Result<(), HttpError> {
    stream.write_all(&response_frame(response, true))?;
    Ok(stream.flush()?)
}

/// A socket whose reads and writes all draw on one budget. A timeout set
/// once on the socket bounds each `read`, so a peer sending a byte just
/// inside it holds the reader for as long as it likes; here what is left
/// of the budget is worked out again before every call.
pub(crate) struct Timed {
    stream: TcpStream,
    deadline: Instant,
}

impl Timed {
    fn left(&self) -> io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Timed {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Timed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One end of a connection that outlives a request: the socket, and the
/// one buffered reader that lives as long as it does (a reader per message
/// would throw away whatever it had read ahead).
pub(crate) struct Conn(BufReader<Timed>);

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        let deadline = Instant::now();
        Ok(Conn(BufReader::new(Timed { stream, deadline })))
    }

    /// The reader, with `budget` to spend on everything read through it
    /// until the next budget is set.
    pub(crate) fn within(&mut self, budget: Duration) -> &mut BufReader<Timed> {
        self.0.get_mut().deadline = Instant::now() + budget;
        &mut self.0
    }

    /// Whether the current budget has run out.
    pub(crate) fn expired(&self) -> bool {
        self.0.get_ref().left().is_err()
    }

    /// Send one framed message, as one write, with `budget` to leave in.
    pub(crate) fn send(&mut self, budget: Duration, frame: &[u8]) -> io::Result<()> {
        self.within(budget).get_mut().write_all(frame)
    }

    /// Whether the connection is open with nothing waiting to be read — what
    /// an idle connection must look like to be used again. A non-blocking
    /// `peek` that would block is the healthy answer; EOF (the peer hung up
    /// while it sat idle), an error, or bytes nobody asked for are not.
    pub(crate) fn quiet(&self) -> bool {
        let socket = &self.0.get_ref().stream;
        if !self.0.buffer().is_empty() || socket.set_nonblocking(true).is_err() {
            return false;
        }
        let probe = socket.peek(&mut [0u8; 1]);
        let would_block = matches!(probe, Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        socket.set_nonblocking(false).is_ok() && would_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            "POST",
            "/v1/rerank?x=1",
            &[("x-tenant".into(), "t1".into())],
            b"{\"a\":1}",
        )
        .unwrap();
        let req = read_request(&buf[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/rerank");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("y"), None);
        assert_eq!(req.header("X-Tenant"), Some("t1"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn response_round_trips_with_headers() {
        let mut buf = Vec::new();
        let resp = Response::json(429, "{\"e\":1}".into()).with_header("Retry-After", "2".into());
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&buf[..]).unwrap();
        assert_eq!(back.status, 429);
        assert_eq!(back.header("retry-after"), Some("2"));
        assert_eq!(back.body, b"{\"e\":1}");
    }

    #[test]
    fn eof_before_request_is_none_and_truncation_is_an_error() {
        assert_eq!(read_request(&b""[..]).unwrap(), None);
        // A body shorter than its content-length is detected, not padded.
        let text = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort";
        let e = read_response(&text[..]).unwrap_err();
        assert!(e.reason.contains("shorter"));
        // EOF mid-headers is an error too.
        assert!(read_request(&b"GET / HTTP/1.1\r\nx: 1\r\n"[..]).is_err());
    }

    #[test]
    fn only_the_one_shot_writers_and_a_last_exchange_say_close() {
        let said = |frame: &[u8]| says_close(&read_request(frame).unwrap().unwrap().headers);
        assert!(!said(&request_frame("GET", "/", &[], b"", false)));
        assert!(said(&request_frame("GET", "/", &[], b"", true)));
        assert!(said(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        let mut one_shot = Vec::new();
        write_request(&mut one_shot, "GET", "/", &[], b"").unwrap();
        assert!(said(&one_shot));
        let resp = Response::json(200, "{}".into());
        let kept = read_response(&response_frame(&resp, false)[..]).unwrap();
        assert!(!says_close(&kept.headers));
        assert_eq!(kept.body, b"{}");
    }

    /// A connected pair over loopback: our end as a [`Conn`], the peer raw.
    fn pair() -> (Conn, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (Conn::new(listener.accept().unwrap().0).unwrap(), peer)
    }

    /// Loopback delivers within the sender's syscall or very soon after.
    fn soon(mut holds: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while !holds() && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        holds()
    }

    #[test]
    fn a_conn_carries_exchanges_back_to_back_and_knows_when_it_is_quiet() {
        let second = Duration::from_secs(1);
        let (mut conn, mut peer) = pair();
        assert!(conn.quiet(), "open, nothing to read");
        // Two requests in one segment: the second sits in the reader, which
        // therefore has to outlive the first.
        let a = request_frame("GET", "/a", &[], b"", false);
        let b = request_frame("POST", "/b", &[], b"xy", false);
        peer.write_all(&[a, b].concat()).unwrap();
        let a = request_from(conn.within(second)).unwrap().unwrap();
        assert!(!conn.quiet(), "a buffered request is not quiet");
        let b = request_from(conn.within(second)).unwrap().unwrap();
        assert_eq!((a.target.as_str(), &b.body[..]), ("/a", &b"xy"[..]));
        assert!(conn.quiet());
        let reply = response_frame(&Response::json(200, "{}".into()), false);
        conn.send(second, &reply).unwrap();
        assert_eq!(read_response(&peer).unwrap().body, b"{}");
        // Bytes nobody asked for, and a hang-up, both spoil it.
        peer.write_all(b"!").unwrap();
        assert!(soon(|| !conn.quiet()));
        let (conn, peer) = pair();
        drop(peer);
        assert!(soon(|| !conn.quiet()));
    }

    /// Sixty-odd bytes 10 ms apart: every read returns well inside the
    /// budget, the message as a whole does not.
    #[test]
    fn a_budget_covers_the_whole_message_not_each_read() {
        let (mut conn, mut peer) = pair();
        let frame = request_frame("POST", "/slow", &[], &[b'x'; 40], false);
        let drip = std::thread::spawn(move || {
            for byte in frame {
                if peer.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let t0 = Instant::now();
        let cut = request_from(conn.within(Duration::from_millis(200)));
        assert!(cut.is_err() && conn.expired(), "{cut:?}");
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        drop(conn);
        drip.join().unwrap();
    }

    #[test]
    fn size_guards_refuse_oversized_frames() {
        let text = format!(
            "GET / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BYTES + 1
        );
        assert!(read_request(text.as_bytes()).is_err());
        // A line that never ends is refused at the guard, wherever it is.
        let endless = "x".repeat(MAX_BYTES + 2);
        let e = read_request(endless.as_bytes()).unwrap_err();
        assert!(e.reason.contains("line too long"), "{e}");
        let e = read_response(format!("HTTP/1.1 200 OK\r\n{endless}").as_bytes());
        assert!(e.unwrap_err().reason.contains("line too long"));
    }

    /// The head is written byte for byte as it always was.
    #[test]
    fn frames_are_written_byte_for_byte() {
        let headers = [("x-tenant".to_string(), "t1".to_string())];
        let request = request_frame("POST", "/v1/rerank?x=1", &headers, b"{}", true);
        let want = "POST /v1/rerank?x=1 HTTP/1.1\r\nx-tenant: t1\r\ncontent-length: 2\r\n\
                    connection: close\r\n\r\n{}";
        assert_eq!(String::from_utf8(request).unwrap(), want);
        let request = request_frame("GET", "/stats", &[], b"", false);
        let want = "GET /stats HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
        assert_eq!(String::from_utf8(request).unwrap(), want);
        let resp = Response::json(429, "{}".into()).with_header("Retry-After", "2".into());
        let want = "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                    retry-after: 2\r\ncontent-length: 2\r\n\r\n{}";
        assert_eq!(
            String::from_utf8(response_frame(&resp, false)).unwrap(),
            want
        );
        let odd = Response {
            status: 7,
            headers: vec![],
            body: vec![b'x'; 12_345],
        };
        let frame = response_frame(&odd, true);
        let want = "HTTP/1.1 7 Status\r\ncontent-length: 12345\r\nconnection: close\r\n\r\n";
        assert_eq!(&frame[..want.len()], want.as_bytes());
        assert_eq!(frame.len(), want.len() + 12_345);
    }

    /// A line is read where it lies in the reader's buffer, or gathered
    /// when it straddles a refill: every buffer size reads the same.
    #[test]
    fn lines_that_straddle_a_refill_read_the_same() {
        let text = b"post /a?b=1 HTTP/1.1\r\nX-Tenant:  t1 \r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\n\n";
        let whole = request_from(&mut BufReader::new(&text[..]))
            .unwrap()
            .unwrap();
        assert_eq!(
            (whole.method.as_str(), whole.header("x-tenant")),
            ("POST", Some("t1"))
        );
        assert_eq!(whole.headers[1], ("content-length".into(), "3".into()));
        for size in 1..text.len() {
            let mut reader = BufReader::with_capacity(size, &text[..]);
            assert_eq!(
                request_from(&mut reader).unwrap().as_ref(),
                Some(&whole),
                "{size}"
            );
            let next = request_from(&mut reader).unwrap().unwrap();
            assert_eq!((next.target.as_str(), next.body.len()), ("/b", 0));
            assert_eq!(request_from(&mut reader).unwrap(), None);
        }
        let e = read_request(&b"GET /\xff HTTP/1.1\r\n\r\n"[..]).unwrap_err();
        assert!(e.reason.contains("UTF-8"), "{e}");
    }

    /// A body framed two ways would leave the next message to start where
    /// the peer did not mean it to: two different lengths, or any transfer
    /// encoding, are refused, and a repeated equal length is not.
    #[test]
    fn a_message_framed_two_ways_is_refused() {
        let twice = b"POST / HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 0\r\n\r\nabc";
        let e = read_request(&twice[..]).unwrap_err();
        assert!(e.reason.contains("conflicting content-length"), "{e}");
        let same = b"POST / HTTP/1.1\r\ncontent-length: 3\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(read_request(&same[..]).unwrap().unwrap().body, b"abc");
        let chunked = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let e = read_request(&chunked[..]).unwrap_err();
        assert!(e.reason.contains("transfer-encoding"), "{e}");
        let identity =
            b"POST / HTTP/1.1\r\ncontent-length: 0\r\ntransfer-encoding: identity\r\n\r\n";
        assert!(read_request(&identity[..]).is_err());
        let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 20\r\n\r\n{}";
        assert!(read_response(&reply[..]).is_err());
        let reply = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
        assert!(read_response(&reply[..]).is_err());
    }
}
