//! Shared client-side helpers for the serve-layer e2e tests: a strict
//! HTTP/1.1 response reader that asserts on the status line and headers
//! (not just body substrings), so framing regressions fail loudly, plus
//! keep-alive-aware request writers.
//!
//! [`Conn`] keeps a receive buffer across responses, so pipelined
//! responses arriving back-to-back in one TCP segment are split exactly on
//! their `Content-Length` boundaries — over-reads by the *server* (writing
//! past its declared length) are detected as misaligned next responses.

#![allow(dead_code)] // each test binary uses its own subset

pub mod faultproxy;
pub mod snapgen;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A fully parsed response: status line, headers, exact-framed body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    pub reason: String,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Panic unless the response advertises the expected `Connection`
    /// disposition.
    pub fn assert_connection(&self, expected: &str) {
        assert_eq!(
            self.header("connection"),
            Some(expected),
            "Connection header mismatch in: {self:?}"
        );
    }
}

/// One client connection with a persistent receive buffer — the strict
/// counterpart of the server's keep-alive loop.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with a generous read timeout (tests must never hang).
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        Self { stream, buf: Vec::new() }
    }

    /// Write raw request bytes (one request or a pipelined batch).
    pub fn send(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).expect("send request");
    }

    /// Send one keep-alive GET and read its response.
    pub fn get(&mut self, path: &str) -> HttpResponse {
        self.send(&get_request(path, true));
        self.read_response()
    }

    /// Read exactly one response using `Content-Length` framing, asserting
    /// the invariants every response must satisfy: a well-formed
    /// `HTTP/1.1 <code> <reason>` status line, `Content-Type`,
    /// `Content-Length`, and `Connection` headers present, and a body of
    /// exactly the declared length. A `304` is header-only whatever its
    /// headers say (RFC 9112 §6.3). Bytes past the response stay buffered
    /// for the next pipelined response.
    pub fn read_response(&mut self) -> HttpResponse {
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(
                n > 0,
                "connection closed mid-head: {:?}",
                String::from_utf8_lossy(&self.buf)
            );
            self.buf.extend_from_slice(&chunk[..n]);
        };

        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("ASCII head");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        assert_eq!(version, "HTTP/1.1", "bad status line: {status_line:?}");
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status code in {status_line:?}"));
        let reason = parts.next().unwrap_or("").to_string();
        assert!(!reason.is_empty(), "missing reason phrase: {status_line:?}");

        let headers: Vec<(String, String)> = lines
            .map(|l| {
                let (k, v) =
                    l.split_once(':').unwrap_or_else(|| panic!("bad header line {l:?}"));
                (k.trim().to_string(), v.trim().to_string())
            })
            .collect();
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        assert!(header("content-type").is_some(), "missing Content-Type: {head:?}");
        let content_length: usize = if status == 304 {
            0
        } else {
            header("content-length")
                .unwrap_or_else(|| panic!("missing Content-Length: {head:?}"))
                .parse()
                .expect("integer Content-Length")
        };
        assert!(
            matches!(header("connection"), Some("close" | "keep-alive")),
            "missing/invalid Connection header: {head:?}"
        );

        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "connection closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        // Consume exactly this response; pipelined successors stay queued.
        self.buf.drain(..total);
        HttpResponse { status, reason, headers, body }
    }

    /// Read one response to a `HEAD` request: identical strict head
    /// parsing, but no body bytes are consumed even when `Content-Length`
    /// is non-zero — HEAD advertises the GET body's length without
    /// sending it. A server that *does* write body bytes desyncs the next
    /// keep-alive response, which the strict reader then catches.
    pub fn read_head_response(&mut self) -> HttpResponse {
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "connection closed mid-head");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("ASCII head");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        let mut parts = status_line.splitn(3, ' ');
        assert_eq!(parts.next().unwrap_or(""), "HTTP/1.1");
        let status: u16 = parts.next().and_then(|s| s.parse().ok()).expect("status code");
        let reason = parts.next().unwrap_or("").to_string();
        let headers: Vec<(String, String)> = lines
            .map(|l| {
                let (k, v) =
                    l.split_once(':').unwrap_or_else(|| panic!("bad header line {l:?}"));
                (k.trim().to_string(), v.trim().to_string())
            })
            .collect();
        self.buf.drain(..head_end + 4);
        HttpResponse { status, reason, headers, body: String::new() }
    }

    /// Assert the server has hung up: nothing left buffered and the next
    /// read returns EOF (or an error from an already-reset socket).
    pub fn assert_eof(&mut self) {
        assert!(
            self.buf.is_empty(),
            "unconsumed bytes at EOF: {:?}",
            String::from_utf8_lossy(&self.buf)
        );
        let mut rest = [0u8; 16];
        let n = self.stream.read(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "expected EOF, got {n} bytes");
    }
}

/// Serialized GET request; `keep_alive` picks the `Connection` header.
pub fn get_request(path: &str, keep_alive: bool) -> String {
    format!(
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// Serialized HEAD request; `keep_alive` picks the `Connection` header.
pub fn head_request(path: &str, keep_alive: bool) -> String {
    format!(
        "HEAD {path} HTTP/1.1\r\nHost: localhost\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// Serialized conditional GET carrying an `If-None-Match` validator.
pub fn get_if_none_match(path: &str, etag: &str, keep_alive: bool) -> String {
    format!(
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nIf-None-Match: {etag}\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// Serialized POST request with a body; `keep_alive` as above.
pub fn post_request(path: &str, body: &str, keep_alive: bool) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// One fresh-connection request/response round trip (`Connection: close`),
/// the pre-keep-alive baseline everything byte-identical is compared to.
pub fn request_once(addr: SocketAddr, request: &str) -> HttpResponse {
    let mut conn = Conn::connect(addr);
    conn.send(request);
    let response = conn.read_response();
    response.assert_connection("close");
    // After a close response the server must actually close: EOF next.
    conn.assert_eof();
    response
}

/// Fresh-connection GET (status, strict-framed response).
pub fn get_once(addr: SocketAddr, path: &str) -> HttpResponse {
    request_once(addr, &get_request(path, false))
}

/// Fresh-connection POST.
pub fn post_once(addr: SocketAddr, path: &str, body: &str) -> HttpResponse {
    request_once(addr, &post_request(path, body, false))
}
