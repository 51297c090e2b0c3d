//! Incremental HTTP/1.1 response framing for pipelined connections.
//!
//! Bytes arrive in arbitrary pieces; [`ResponseReader::next_response`]
//! yields each `Content-Length`-framed response once all of its bytes are
//! buffered, and leaves any following bytes for the next one. The
//! self-tests feed every response split at every byte boundary.

/// Largest response head the reader accepts.
const MAX_HEAD: usize = 16 * 1024;

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// The `X-Pipefail-Epoch` header, when present and numeric.
    pub epoch: Option<u64>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Why a byte stream is not a sequence of responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramingError {
    /// The status line is not `HTTP/1.x <code> ...`.
    StatusLine,
    /// No `Content-Length` header, or one that is not a number.
    Length,
    /// The head grew past [`MAX_HEAD`] without terminating.
    HeadTooLarge,
}

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramingError::StatusLine => write!(f, "malformed status line"),
            FramingError::Length => write!(f, "missing or malformed Content-Length"),
            FramingError::HeadTooLarge => write!(f, "response head over {MAX_HEAD} bytes"),
        }
    }
}

/// Buffers a connection's bytes and frames responses off the front.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    start: usize,
}

impl ResponseReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Buffered bytes not yet framed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Drop everything buffered (the connection is being replaced).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    /// The next complete response, `Ok(None)` if more bytes are needed.
    pub fn next_response(&mut self) -> Result<Option<Response>, FramingError> {
        let data = &self.buf[self.start..];
        let Some(head_end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return if data.len() > MAX_HEAD {
                Err(FramingError::HeadTooLarge)
            } else {
                Ok(None)
            };
        };
        let head = std::str::from_utf8(&data[..head_end]).map_err(|_| FramingError::StatusLine)?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .filter(|_| version.starts_with("HTTP/1."))
            .ok_or(FramingError::StatusLine)?;
        let mut length = None;
        let mut close = false;
        let mut epoch = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| FramingError::Length)?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-pipefail-epoch") {
                epoch = value.parse::<u64>().ok();
            }
        }
        let length = length.ok_or(FramingError::Length)?;
        let total = head_end + 4 + length;
        if data.len() < total {
            return Ok(None);
        }
        let body = data[head_end + 4..total].to_vec();
        self.start += total;
        Ok(Some(Response {
            status,
            close,
            epoch,
            body,
        }))
    }
}
