// The connection core: one loop thread multiplexes every connection over
// epoll while a worker pool does the CPU-bound scoring. Answers must not
// depend on how the client fragments its writes or reads
// (proptest-asserted in tests/epoll_core.rs).
//
// Per-connection state machine:
//
//   accept ──▶ READING ──parse──▶ SCORING ──done──▶ WRITING ─┐
//                ▲  ▲            (worker pool)               │
//                │  └────────────── keep-alive ◀─────────────┘
//                │                                 close/cap/error ──▶ closed
//              IDLE (no request in flight; idle-timeout sweep)
//
// * READING: level-triggered `EPOLLIN`; bytes append to the connection
//   buffer and the incremental parser consumes exact byte counts, so
//   pipelined requests survive arbitrary fragmentation.
// * SCORING: the parsed request is on the worker pool; read interest is
//   dropped (natural TCP backpressure — the kernel buffer fills, the
//   client's send window closes) and the cumulative request deadline is
//   suspended: the budget bounds what the *client* takes, and server-side
//   scoring time is not the client's fault.
// * WRITING: responses are queued to an output buffer drained on
//   `EPOLLOUT`, so a slow reader never blocks the loop; a write stalled
//   past the request timeout closes the connection, so a client that
//   stops reading cannot hold its buffer forever.
// * Admission control: a bounded in-flight queue answers `429` +
//   `Retry-After` straight from the loop; at the connection cap the
//   longest-idle keep-alive connection is shed first, and only when no
//   connection is sheddable does a new client get `429` + close.
//
// Workers hand completed responses back through a `Mutex<Vec<Done>>`
// drained by the loop; a `UnixStream` socketpair is the wakeup pipe that
// pops the loop out of `epoll_wait` when a completion lands.

use crate::http::{json_str, RequestHandler, Response, ServerConfig};
use crate::metrics::{Metrics, Route};
use crate::parser::{self, ParseOutcome, ParsedRequest};
use crate::sys::{self, ep, EpollEvent};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;

/// Bytes one connection may read per readiness event before yielding to
/// its peers (level-triggered epoll re-arms it immediately).
const READ_BUDGET: usize = 256 * 1024;

/// A parsed request on its way to the worker pool.
struct Job {
    token: u64,
    req: ParsedRequest,
    /// Connection-close decision made at parse time (client preference or
    /// keep-alive cap), applied to the response by the worker.
    close: bool,
}

/// A serialized response on its way back from the worker pool.
struct Done {
    token: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Recycled response-frame buffers: workers pop one, render the response
/// into it, and the loop thread returns it once the frame is fully
/// written — so the steady-state request path (cache hits especially)
/// allocates no frame memory. Oversized buffers (a huge `/aggregate`
/// body) are dropped rather than pinned.
#[derive(Default)]
struct FramePool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

/// Buffers retained in the pool at most (≈ the worker+loop high-water
/// mark with headroom; beyond this, freeing beats hoarding).
const POOL_MAX_BUFS: usize = 128;
/// Largest buffer capacity worth recycling.
const POOL_MAX_BUF_BYTES: usize = 1 << 20;

impl FramePool {
    fn get(&self) -> Vec<u8> {
        self.bufs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_BUF_BYTES {
            return;
        }
        buf.clear();
        let mut bufs = self.bufs.lock().unwrap_or_else(|p| p.into_inner());
        if bufs.len() < POOL_MAX_BUFS {
            bufs.push(buf);
        }
    }
}

struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the parser.
    buf: Vec<u8>,
    /// Serialized response bytes not yet written; drained on `EPOLLOUT`.
    out: Vec<u8>,
    out_pos: usize,
    /// Requests served on this connection (keep-alive cap accounting).
    served: usize,
    /// A request from this connection is at the workers.
    inflight: bool,
    close_after_write: bool,
    /// Cumulative per-request deadline, armed at the first byte of a
    /// request and never extended by later reads, so a client dribbling
    /// bytes cannot outlast the request timeout (slow-loris).
    request_started: Option<Instant>,
    idle_since: Instant,
    /// When the current output buffer was queued (write-stall deadline).
    write_started: Option<Instant>,
    /// Currently registered epoll interest bits.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::with_capacity(1024),
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            inflight: false,
            close_after_write: false,
            request_started: None,
            idle_since: Instant::now(),
            write_started: None,
            interest: ep::EPOLLIN,
        }
    }

    /// Truly idle: keep-alive between requests, nothing buffered either
    /// way — the only state safe to shed under connection pressure.
    fn sheddable(&self) -> bool {
        !self.inflight && self.out.is_empty() && self.buf.is_empty() && self.request_started.is_none()
    }
}

enum Flush {
    /// Output fully drained (or nothing to drain); connection still open.
    Flushed,
    /// Socket would block; `EPOLLOUT` is armed.
    Pending,
    /// Connection was closed (write error or `close_after_write`).
    Closed,
}

/// Spawn the event loop and its worker pool. Returns the loop thread (the
/// shutdown protocol — set the flag, poke the listener with a throwaway
/// connect — wakes it out of `epoll_wait`) plus the worker handles.
pub(crate) fn spawn(
    handler: Arc<dyn RequestHandler>,
    metrics: Arc<Metrics>,
    config: &ServerConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<(JoinHandle<()>, Vec<JoinHandle<()>>)> {
    listener.set_nonblocking(true)?;
    let epoll = sys::Epoll::new()?;
    epoll.add(listener.as_raw_fd(), ep::EPOLLIN, TOKEN_LISTENER)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    epoll.add(wake_rx.as_raw_fd(), ep::EPOLLIN, TOKEN_WAKE)?;

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let pool = Arc::new(FramePool::default());

    let mut workers = Vec::with_capacity(config.resolved_workers());
    for _ in 0..config.resolved_workers() {
        let rx = Arc::clone(&job_rx);
        let handler = Arc::clone(&handler);
        let metrics = Arc::clone(&metrics);
        let done = Arc::clone(&done);
        let pool = Arc::clone(&pool);
        let wake = wake_tx.try_clone()?;
        workers.push(std::thread::spawn(move || {
            worker_loop(&rx, handler.as_ref(), &metrics, &done, &pool, wake)
        }));
    }
    drop(wake_tx); // workers hold the only write ends now

    let lp = EventLoop {
        epoll,
        listener,
        wake_rx,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        job_tx,
        done,
        inflight: 0,
        metrics,
        shutdown,
        request_timeout: Duration::from_secs_f64(config.request_timeout_secs),
        idle_timeout: Duration::from_secs_f64(config.idle_timeout_secs),
        keepalive_requests: config.keepalive_requests,
        max_request_bytes: config.max_request_bytes,
        max_connections: config.max_connections,
        max_inflight: config.max_inflight,
        pool,
    };
    let loop_thread = std::thread::spawn(move || lp.run());
    Ok((loop_thread, workers))
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<Job>>,
    handler: &dyn RequestHandler,
    metrics: &Metrics,
    done: &Mutex<Vec<Done>>,
    pool: &FramePool,
    mut wake: UnixStream,
) {
    loop {
        // Hold the lock only for the dequeue, so workers score in
        // parallel; recover from a poisoned lock (a panicking sibling)
        // rather than dying with it.
        let job = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        let Ok(job) = job else { break }; // loop exited, queue drained
        let started = Instant::now();
        let (route, mut response) = handler.handle(&job.req, metrics);
        response.close = job.close;
        // Observe before the response can reach the client: a client that
        // has read a response must already see it counted in /metrics. The
        // response is not handed to the loop until after this. Health
        // probes count in their own side counter so a federation front end
        // polling `/healthz` every second doesn't drown the request series.
        if route == Route::Healthz {
            metrics.healthz();
        } else {
            metrics.observe(route, response.status, started.elapsed());
        }
        // Render into a recycled frame buffer; the loop thread returns it
        // to the pool after the write drains.
        let mut bytes = pool.get();
        response.render_into(&mut bytes);
        {
            let mut guard = done.lock().unwrap_or_else(|p| p.into_inner());
            guard.push(Done {
                token: job.token,
                bytes,
                close: response.close,
            });
        }
        // Pop the loop out of epoll_wait. WouldBlock means the pipe is
        // already full of unread wakeups — the loop is waking regardless.
        let _ = wake.write(&[1u8]);
    }
}

struct EventLoop {
    epoll: sys::Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    job_tx: mpsc::Sender<Job>,
    done: Arc<Mutex<Vec<Done>>>,
    /// Requests currently at the worker pool (bounded by `max_inflight`).
    inflight: usize,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    request_timeout: Duration,
    idle_timeout: Duration,
    keepalive_requests: usize,
    max_request_bytes: usize,
    max_connections: usize,
    max_inflight: usize,
    /// Shared frame-buffer pool; drained output buffers go back here.
    pool: Arc<FramePool>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let timeout_ms = self.sweep_deadlines();
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in events.iter().take(n) {
                // Braced reads: fields of a packed struct must not be
                // referenced, only copied.
                let token = { ev.data };
                let bits = { ev.events };
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    _ => self.conn_ready(token, bits),
                }
            }
            self.drain_completions();
        }
        // Teardown: dropping `self` closes every connection and the
        // listener, and drops `job_tx` so workers drain the queue and exit.
    }

    /// Close expired connections (idle timeout, request deadline, stalled
    /// write) and return the `epoll_wait` timeout to the next deadline.
    fn sweep_deadlines(&mut self) -> i32 {
        let now = Instant::now();
        let mut soonest: Option<Duration> = None;
        let mut idle_expired: Vec<u64> = Vec::new();
        let mut request_expired: Vec<u64> = Vec::new();
        let mut write_expired: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            // SCORING carries no deadline: the request budget is suspended
            // while the handler runs (see the state machine above).
            if conn.inflight {
                continue;
            }
            let (deadline, bucket) = if !conn.out.is_empty() {
                let started = conn.write_started.unwrap_or(now);
                (started + self.request_timeout, &mut write_expired)
            } else if let Some(t0) = conn.request_started {
                (t0 + self.request_timeout, &mut request_expired)
            } else {
                (conn.idle_since + self.idle_timeout, &mut idle_expired)
            };
            if deadline <= now {
                bucket.push(token);
            } else {
                let left = deadline - now;
                soonest = Some(soonest.map_or(left, |s| s.min(left)));
            }
        }
        for token in idle_expired {
            // Idle keep-alive expiry closes quietly: nothing was asked.
            self.close_conn(token);
        }
        for token in write_expired {
            // A reader stalled past the request budget mid-response.
            self.close_conn(token);
        }
        for token in request_expired {
            self.answer_request_timeout(token);
        }
        match soonest {
            // No armed deadlines: sleep at most 1s so new deadlines from
            // freshly accepted connections are never starved of a sweep.
            None => 1000,
            Some(left) => (left.as_millis().min(999) as i32).saturating_add(1),
        }
    }

    /// `408` for a connection whose cumulative request deadline expired
    /// mid-request (stalled or dribbling client): tell it before hanging
    /// up. Idle keep-alive expiry, where nothing was asked, closes quietly
    /// instead.
    fn answer_request_timeout(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut response = Response::json(408, "{\"error\":\"request timeout\"}");
        response.close = true;
        self.metrics.observe(Route::Other, 408, self.request_timeout);
        conn.out = response.to_bytes();
        conn.out_pos = 0;
        conn.write_started = Some(Instant::now());
        conn.close_after_write = true;
        conn.request_started = None;
        match self.flush(token) {
            Flush::Flushed | Flush::Pending | Flush::Closed => {}
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        // The shutdown poke; drop it and let run() exit.
                        return;
                    }
                    self.admit(stream);
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        // Request/response on one socket is latency-bound, not
        // throughput-bound: disable Nagle so small frames leave
        // immediately instead of waiting out a delayed ACK.
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.max_connections > 0 && self.conns.len() >= self.max_connections {
            // Shed the longest-idle keep-alive connection first: an idle
            // client loses a socket it wasn't using, instead of a live
            // client losing service.
            let victim = self
                .conns
                .iter()
                .filter(|(_, c)| c.sheddable())
                .min_by_key(|(_, c)| c.idle_since)
                .map(|(&t, _)| t);
            match victim {
                Some(token) => {
                    self.close_conn(token);
                    self.metrics.connection_shed();
                }
                None => {
                    // Every connection is mid-request: admission control
                    // answers 429 instead of letting the accept queue starve.
                    self.metrics.admission_rejected();
                    self.metrics.observe(Route::Other, 429, Duration::ZERO);
                    let mut response = too_many_requests();
                    response.close = true;
                    let mut stream = stream;
                    let _ = stream.write_all(&response.to_bytes());
                    return; // drops (closes) the new socket
                }
            }
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), ep::EPOLLIN, token)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream));
        self.metrics.conn_opened();
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut sink) {
                Ok(0) => break, // all workers gone (shutdown)
                Ok(_) => continue,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    fn drain_completions(&mut self) {
        let completed = {
            let mut guard = self.done.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        for done in completed {
            self.inflight = self.inflight.saturating_sub(1);
            let Some(conn) = self.conns.get_mut(&done.token) else {
                continue; // connection died while its request was scoring
            };
            conn.inflight = false;
            conn.close_after_write = done.close;
            conn.out = done.bytes;
            conn.out_pos = 0;
            conn.write_started = Some(Instant::now());
            self.pump(done.token);
        }
    }

    fn conn_ready(&mut self, token: u64, bits: u32) {
        if bits & (ep::EPOLLHUP | ep::EPOLLERR) != 0 {
            // Peer hung up (FIN both ways, or RST): nothing this connection
            // owes can be delivered, and a graceful FIN-with-data arrives as
            // plain EPOLLIN, not HUP — safe to drop immediately.
            self.close_conn(token);
            return;
        }
        if bits & ep::EPOLLOUT != 0 {
            match self.flush(token) {
                Flush::Closed | Flush::Pending => return,
                Flush::Flushed => {
                    // Output drained: pipelined requests already buffered
                    // (or a fresh idle state) continue below.
                    if !self.pump(token) {
                        return;
                    }
                }
            }
        }
        if bits & ep::EPOLLIN != 0 {
            self.read_ready(token);
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; 4096];
        let mut budget = READ_BUDGET;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // A dispatched or writing connection stops reading: interest is
            // off, the kernel buffer backs up, TCP backpressure reaches the
            // client, so one fast writer cannot queue unbounded requests.
            if conn.inflight || !conn.out.is_empty() {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    if conn.request_started.is_none() {
                        conn.request_started = Some(Instant::now());
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                    if !self.pump(token) {
                        return;
                    }
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        // Yield to other connections; level-triggered epoll
                        // re-reports the remaining bytes immediately.
                        return;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// Parse-and-dispatch: consume as many buffered requests as can make
    /// progress, one at a time per connection (pipelined requests are
    /// answered in order). The parser's exact `consumed`-byte accounting
    /// keeps the stream aligned; the deadline re-arms for a leftover
    /// pipelined request, and the keep-alive cap decides `close`. Returns
    /// `false` when the connection was closed.
    fn pump(&mut self, token: u64) -> bool {
        loop {
            match self.flush(token) {
                Flush::Closed => return false,
                Flush::Pending => return true, // EPOLLOUT armed; parsing resumes after drain
                Flush::Flushed => {}
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.inflight {
                return true; // one request at a time per connection
            }
            if conn.buf.is_empty() {
                self.update_interest(token);
                return true;
            }
            match parser::parse_request(&conn.buf, self.max_request_bytes) {
                Ok(ParseOutcome::Complete(req, consumed)) => {
                    conn.buf.drain(..consumed);
                    // Leftover bytes are the next pipelined request; its
                    // deadline starts now. An empty buffer disarms it.
                    conn.request_started = if conn.buf.is_empty() {
                        None
                    } else {
                        Some(Instant::now())
                    };
                    conn.served += 1;
                    if conn.served > 1 {
                        self.metrics.keepalive_reuse();
                    }
                    let at_cap = self.keepalive_requests > 0
                        && conn.served >= self.keepalive_requests;
                    let close = !req.wants_keep_alive() || at_cap;
                    if self.max_inflight > 0 && self.inflight >= self.max_inflight {
                        // The worker queue is at its bound: reject from the
                        // loop thread instead of queueing unbounded work.
                        self.metrics.admission_rejected();
                        self.metrics.observe(Route::Other, 429, Duration::ZERO);
                        let mut response = too_many_requests();
                        response.close = close;
                        conn.out = response.to_bytes();
                        conn.out_pos = 0;
                        conn.write_started = Some(Instant::now());
                        conn.close_after_write = close;
                        continue; // flush, then keep draining the buffer
                    }
                    self.inflight += 1;
                    conn.inflight = true;
                    let _ = self.job_tx.send(Job { token, req, close });
                    self.update_interest(token);
                    return true;
                }
                Ok(ParseOutcome::Incomplete) => {
                    self.update_interest(token);
                    return true;
                }
                Err(e) => {
                    // Broken framing: answer once, then close — the byte
                    // stream can no longer be trusted to align.
                    let mut response = Response::json(
                        e.status(),
                        format!("{{\"error\":{}}}", json_str(&e.to_string())),
                    );
                    response.close = true;
                    self.metrics.observe(Route::Other, response.status, Duration::ZERO);
                    conn.out = response.to_bytes();
                    conn.out_pos = 0;
                    conn.write_started = Some(Instant::now());
                    conn.close_after_write = true;
                    continue; // flush loop closes after the write drains
                }
            }
        }
    }

    /// Drain the output buffer as far as the socket allows.
    fn flush(&mut self, token: u64) -> Flush {
        let Some(conn) = self.conns.get_mut(&token) else {
            return Flush::Closed;
        };
        if conn.out.is_empty() {
            return Flush::Flushed;
        }
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return Flush::Closed;
                }
                Ok(n) => conn.out_pos += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.interest != ep::EPOLLOUT {
                        let _ = self.epoll.modify(
                            conn.stream.as_raw_fd(),
                            ep::EPOLLOUT,
                            token,
                        );
                        conn.interest = ep::EPOLLOUT;
                    }
                    return Flush::Pending;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return Flush::Closed;
                }
            }
        }
        // Fully written: hand the frame buffer back to the pool instead of
        // dropping it, so the next response renders allocation-free.
        let drained = std::mem::take(&mut conn.out);
        conn.out_pos = 0;
        conn.write_started = None;
        let close = conn.close_after_write;
        if !close {
            conn.idle_since = Instant::now();
        }
        self.pool.put(drained);
        if close {
            self.close_conn(token);
            return Flush::Closed;
        }
        Flush::Flushed
    }

    /// Reconcile the registered epoll interest with the connection state:
    /// `EPOLLOUT` while output is pending, `EPOLLIN` while idle or
    /// mid-parse, nothing while a request is at the workers (errors and
    /// hangups are always reported regardless).
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = if !conn.out.is_empty() {
            ep::EPOLLOUT
        } else if conn.inflight {
            0
        } else {
            ep::EPOLLIN
        };
        if desired != conn.interest {
            let _ = self
                .epoll
                .modify(conn.stream.as_raw_fd(), desired, token);
            conn.interest = desired;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.del(conn.stream.as_raw_fd());
            self.metrics.conn_closed();
            // `conn.stream` drops here, closing the socket.
        }
    }
}

/// The admission-control response: the client did nothing wrong, the
/// server is at capacity — come back shortly.
fn too_many_requests() -> Response {
    Response::json(429, "{\"error\":\"too many requests\"}").with_header("Retry-After", "1")
}
