//! Incremental HTTP/1.1 request parser for the keep-alive server.
//!
//! The epoll event loop reads each connection into one growing byte
//! buffer and calls [`parse_request`] on it after every read; the
//! incremental contract is what makes a single-threaded loop over
//! thousands of fragmented sockets possible at all. The parser either produces a complete request **plus
//! the exact number of bytes it consumed** (so pipelined requests queued
//! behind it in the same buffer are untouched), reports that the buffer
//! is still incomplete, or fails with a typed [`ParseError`]. It never
//! panics on any byte sequence and never reads past the framing declared
//! by the request itself — both properties are exercised by the
//! adversarial proptest battery in
//! `crates/serve/tests/parser_proptest.rs`, and the event loop's
//! independence from read/write fragmentation on top of it by
//! `crates/serve/tests/epoll_core.rs`.

use std::fmt;

/// Maximum number of header lines accepted in one request head. A client
/// streaming unbounded headers is cut off with a typed error rather than
/// growing the buffer until the byte cap trips.
pub const MAX_HEADER_LINES: usize = 64;

/// Typed request-parse failures. Every variant maps to an error response
/// and closes the connection (once framing is broken, the byte stream
/// cannot be trusted to align with the next request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line was not `METHOD TARGET HTTP/1.x`.
    BadRequestLine(String),
    /// The head (request line + headers) exceeded the size cap without
    /// terminating in a blank line.
    HeadTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// More than [`MAX_HEADER_LINES`] header lines.
    TooManyHeaders {
        /// The line cap that was exceeded.
        limit: usize,
    },
    /// A `Content-Length` header was present but not a base-10 integer.
    BadContentLength(String),
    /// The declared body exceeds the size cap.
    BodyTooLarge {
        /// Declared `Content-Length`.
        length: usize,
        /// The configured cap in bytes.
        limit: usize,
    },
    /// A `Transfer-Encoding` header was present. Only `Content-Length`
    /// framing is implemented; silently ignoring the header would make the
    /// chunked body bytes parse as the *next* pipelined request
    /// (connection desync / request smuggling), so it is a hard error.
    UnsupportedTransferEncoding(String),
}

impl ParseError {
    /// The HTTP status the server answers with before closing.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadTooLarge { .. } | ParseError::BodyTooLarge { .. } => 413,
            ParseError::UnsupportedTransferEncoding(_) => 501,
            _ => 400,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadRequestLine(line) => write!(f, "bad request line: {line:?}"),
            ParseError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            ParseError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} header lines")
            }
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            ParseError::BodyTooLarge { length, limit } => {
                write!(f, "declared body of {length} bytes exceeds {limit}-byte cap")
            }
            ParseError::UnsupportedTransferEncoding(v) => {
                write!(f, "Transfer-Encoding {v:?} not supported; use Content-Length framing")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// What the client asked to happen to the connection after this request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionDirective {
    /// `Connection: keep-alive` (or a token list containing it).
    KeepAlive,
    /// `Connection: close` — wins over `keep-alive` if both appear.
    Close,
    /// No `Connection` header: HTTP/1.1 defaults to keep-alive,
    /// HTTP/1.0 to close.
    Unspecified,
}

/// A fully parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Path component of the target, before any `?`.
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    /// True for `HTTP/1.1`, false for `HTTP/1.0`.
    pub http11: bool,
    /// The client's `Connection` header, if any.
    pub connection: ConnectionDirective,
    /// The client's `If-None-Match` validator, if any — compared against
    /// the epoch-derived `ETag` on cacheable GET routes to answer `304`.
    pub if_none_match: Option<String>,
    /// Request body, exactly `Content-Length` bytes (lossy UTF-8).
    pub body: String,
}

impl ParsedRequest {
    /// Whether the connection stays open after this request under the
    /// HTTP/1.x defaulting rules: an explicit header wins; otherwise
    /// HTTP/1.1 keeps alive and HTTP/1.0 closes.
    pub fn wants_keep_alive(&self) -> bool {
        match self.connection {
            ConnectionDirective::KeepAlive => true,
            ConnectionDirective::Close => false,
            ConnectionDirective::Unspecified => self.http11,
        }
    }
}

/// Result of one parse attempt over the connection buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// One complete request, and the number of buffer bytes it occupied.
    /// The caller must drain exactly that many bytes; anything after them
    /// belongs to the next pipelined request.
    Complete(ParsedRequest, usize),
    /// The buffer does not yet hold a complete request; read more.
    Incomplete,
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Try to parse one request off the front of `buf`.
///
/// `max_bytes` caps both the head and the declared body size. The parser
/// consumes nothing itself — on [`ParseOutcome::Complete`] the caller
/// drains the reported count, which never extends past this request's own
/// `Content-Length` framing.
pub fn parse_request(buf: &[u8], max_bytes: usize) -> Result<ParseOutcome, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        // No terminator yet: either keep reading, or reject a head that
        // already outgrew the cap (it can never terminate acceptably).
        if buf.len() > max_bytes {
            return Err(ParseError::HeadTooLarge { limit: max_bytes });
        }
        return Ok(ParseOutcome::Incomplete);
    };
    if head_end > max_bytes {
        return Err(ParseError::HeadTooLarge { limit: max_bytes });
    }

    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::BadRequestLine(clip(request_line))),
    };
    if method.is_empty() || target.is_empty() || parts.next().is_some() {
        return Err(ParseError::BadRequestLine(clip(request_line)));
    }

    let mut content_length = 0usize;
    let mut connection = ConnectionDirective::Unspecified;
    let mut if_none_match = None;
    let mut header_lines = 0usize;
    for line in lines {
        header_lines += 1;
        if header_lines > MAX_HEADER_LINES {
            return Err(ParseError::TooManyHeaders { limit: MAX_HEADER_LINES });
        }
        let Some((name, value)) = line.split_once(':') else {
            // Tolerate stray header junk the way the close-per-request
            // server did; framing only depends on the two headers below.
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // With keep-alive, treating a chunked request as body-less
            // would desync the connection: its body bytes would be parsed
            // as the next pipelined request. Refuse the framing outright.
            return Err(ParseError::UnsupportedTransferEncoding(clip(value)));
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| ParseError::BadContentLength(clip(value)))?;
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    connection = ConnectionDirective::Close;
                    break; // close wins over keep-alive
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    connection = ConnectionDirective::KeepAlive;
                }
            }
        } else if name.eq_ignore_ascii_case("if-none-match") {
            if_none_match = Some(clip(value));
        }
    }
    if content_length > max_bytes {
        return Err(ParseError::BodyTooLarge { length: content_length, limit: max_bytes });
    }

    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(ParseOutcome::Incomplete);
    }
    let body = String::from_utf8_lossy(&buf[body_start..total]).into_owned();

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(ParseOutcome::Complete(
        ParsedRequest {
            method: method.to_string(),
            path,
            query,
            http11,
            connection,
            if_none_match,
            body,
        },
        total,
    ))
}

/// Bound error-message payloads taken from attacker-controlled bytes.
fn clip(s: &str) -> String {
    const CAP: usize = 80;
    if s.len() <= CAP {
        s.to_string()
    } else {
        let mut end = CAP;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 64 * 1024;

    fn complete(buf: &[u8]) -> (ParsedRequest, usize) {
        match parse_request(buf, MAX) {
            Ok(ParseOutcome::Complete(req, n)) => (req, n),
            other => panic!("expected complete parse, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_get() {
        let raw = b"GET /top?k=3 HTTP/1.1\r\nHost: x\r\n\r\n";
        let (req, n) = complete(raw);
        assert_eq!(n, raw.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/top");
        assert_eq!(req.query, "k=3");
        assert!(req.http11);
        assert_eq!(req.connection, ConnectionDirective::Unspecified);
        assert_eq!(req.if_none_match, None);
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn if_none_match_is_captured_and_clipped() {
        let (req, _) =
            complete(b"GET /top HTTP/1.1\r\nIf-None-Match: \"abc123\"\r\n\r\n");
        assert_eq!(req.if_none_match.as_deref(), Some("\"abc123\""));
        // Case-insensitive name, attacker-length values bounded.
        let raw = format!("GET / HTTP/1.1\r\nif-none-match: {}\r\n\r\n", "x".repeat(500));
        let (req, _) = complete(raw.as_bytes());
        assert!(req.if_none_match.unwrap().len() < 120);
    }

    #[test]
    fn http10_defaults_to_close_and_honors_explicit_keepalive() {
        let (req, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.wants_keep_alive());
        let (req, _) = complete(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.wants_keep_alive());
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.wants_keep_alive());
        // A token list with close anywhere closes.
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n");
        assert!(!req.wants_keep_alive());
    }

    #[test]
    fn body_consumes_exactly_content_length() {
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 5\r\n\r\ntop 3GET /next";
        let (req, n) = complete(raw);
        assert_eq!(req.body, "top 3");
        assert_eq!(n, raw.len() - "GET /next".len());
    }

    #[test]
    fn incomplete_until_full_framing_arrives() {
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 5\r\n\r\ntop 3";
        for cut in 0..raw.len() {
            assert_eq!(
                parse_request(&raw[..cut], MAX),
                Ok(ParseOutcome::Incomplete),
                "prefix of {cut} bytes"
            );
        }
        assert!(matches!(parse_request(raw, MAX), Ok(ParseOutcome::Complete(_, n)) if n == raw.len()));
    }

    #[test]
    fn typed_errors_for_bad_framing() {
        assert!(matches!(
            parse_request(b"FLURB\r\n\r\n", MAX),
            Err(ParseError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/2.0\r\n\r\n", MAX),
            Err(ParseError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", MAX),
            Err(ParseError::BadContentLength(_))
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: -4\r\n\r\n", MAX),
            Err(ParseError::BadContentLength(_))
        ));
        let e = parse_request(b"GET / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 100);
        assert!(matches!(e, Err(ParseError::BodyTooLarge { length: 999, limit: 100 })));
        assert_eq!(e.unwrap_err().status(), 413);
    }

    #[test]
    fn transfer_encoding_is_refused_not_desynced() {
        // A legal HTTP/1.1 chunked request must NOT parse as body-less
        // (its chunk bytes would become the "next" pipelined request).
        let raw = b"POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\ntop 3\r\n0\r\n\r\n";
        let e = parse_request(raw, MAX);
        assert!(
            matches!(e, Err(ParseError::UnsupportedTransferEncoding(ref v)) if v == "chunked"),
            "{e:?}"
        );
        assert_eq!(e.unwrap_err().status(), 501);
        // Case-insensitive, and refused even alongside a Content-Length.
        let raw = b"POST /batch HTTP/1.1\r\ntransfer-encoding: GZIP\r\nContent-Length: 5\r\n\r\ntop 3";
        assert!(matches!(
            parse_request(raw, MAX),
            Err(ParseError::UnsupportedTransferEncoding(_))
        ));
    }

    #[test]
    fn oversized_and_unterminated_heads_are_rejected() {
        let long = vec![b'a'; 200];
        assert!(matches!(
            parse_request(&long, 100),
            Err(ParseError::HeadTooLarge { limit: 100 })
        ));
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADER_LINES + 1) {
            many.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert!(matches!(
            parse_request(&many, MAX),
            Err(ParseError::TooManyHeaders { .. })
        ));
    }

    #[test]
    fn error_messages_clip_attacker_bytes() {
        let line = format!("GET /{} HTTP/9.9\r\n\r\n", "x".repeat(500));
        match parse_request(line.as_bytes(), MAX) {
            Err(ParseError::BadRequestLine(msg)) => assert!(msg.len() < 120, "{msg:?}"),
            other => panic!("{other:?}"),
        }
    }
}
