// The connection core: `workers` identical serving threads share one epoll
// instance, and the thread that receives a connection's event answers it.
// Answers must not depend on how the client fragments its writes or reads
// (proptest-asserted in tests/epoll_core.rs).
//
// Per-connection state machine:
//
//   accept ──▶ READING ──parse──▶ ANSWER ──render──▶ WRITING ─┐
//                ▲  ▲          (this thread)                   │
//                │  └─────────────── keep-alive ◀──────────────┘
//                │                                  close/cap/error ──▶ closed
//              IDLE (nothing buffered; idle-timeout sweep)
//
// * Ownership: every connection is registered `EPOLLONESHOT` and each
//   thread takes one event per `epoll_wait`, so the thread that receives
//   an event owns the connection until it re-arms it. A slow handler holds
//   only its own thread; a thread that took a batch of events would hold
//   the rest of the batch behind it.
// * READING: bytes append to the connection buffer and the incremental
//   parser consumes exact byte counts, so pipelined requests survive
//   arbitrary fragmentation. Each complete request is answered in order;
//   one event reads at most `READ_BUDGET` bytes before yielding.
// * ANSWER: while a thread holds the connection it is not armed, so the
//   kernel buffer fills and the client's send window closes (TCP
//   backpressure), and no deadline runs: the cumulative request budget
//   bounds what the *client* takes, not the server's work.
// * WRITING: a response is written before the next pipelined request is
//   parsed, so a connection's output stays bounded; output the socket
//   does not take re-arms `EPOLLOUT`, and a write stalled past the request
//   timeout closes the connection.
// * Admission control: at the connection cap the longest-idle sheddable
//   connection is closed first; only when none is does a new client get
//   `429` + `Retry-After` + close.
//
// Locking: the connection table sits behind one mutex and each connection
// behind its own; block only in the order connection → table. The
// deadline sweep and the cap shedder only `try_lock` a connection: one a
// thread holds is being served, so it has no running deadline and is not
// sheddable.

use crate::http::{json_str, RequestHandler, Response, ServerConfig};
use crate::metrics::{Counter, Metrics, Route};
use crate::parser::{self, ParseOutcome, ParsedRequest};
use crate::sys::{self, ep, EpollEvent};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;

/// Bytes one connection may read per event before yielding to its peers
/// (re-arming reports the remaining bytes at once).
const READ_BUDGET: usize = 256 * 1024;

/// Largest output-buffer capacity a connection keeps across keep-alive
/// requests; a huge `/aggregate` body is freed rather than pinned.
const MAX_KEPT_OUT_BYTES: usize = 1 << 20;

/// `Core::next_deadline` when no deadline is armed.
const NO_DEADLINE: u64 = u64::MAX;

struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the parser.
    buf: Vec<u8>,
    /// Serialized response bytes not yet written. Its capacity is kept
    /// across keep-alive requests, so the next response renders without
    /// allocating.
    out: Vec<u8>,
    out_pos: usize,
    /// Requests served on this connection (keep-alive cap accounting).
    served: usize,
    close_after_write: bool,
    /// Cumulative per-request deadline, armed at the first byte of a
    /// request and never extended by later reads, so a client dribbling
    /// bytes cannot outlast the request timeout (slow-loris).
    request_started: Option<Instant>,
    idle_since: Instant,
    /// When the current output was queued (write-stall deadline).
    write_started: Option<Instant>,
    /// Removed from the table: a thread that took this connection's event
    /// before the close finds it set and lets go.
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::with_capacity(1024),
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            close_after_write: false,
            request_started: None,
            idle_since: Instant::now(),
            write_started: None,
            closed: false,
        }
    }

    /// Truly idle: keep-alive between requests, nothing buffered either
    /// way — the only state safe to shed under connection pressure.
    fn sheddable(&self) -> bool {
        self.out.is_empty() && self.buf.is_empty() && self.request_started.is_none()
    }

    /// Render `response` into the output buffer and start the write-stall
    /// clock.
    fn queue(&mut self, response: &Response) {
        response.render_into(&mut self.out);
        self.out_pos = 0;
        self.write_started = Some(Instant::now());
        self.close_after_write = response.close;
    }

    /// Drain the output buffer as far as the socket allows.
    fn flush(&mut self) -> Flush {
        if self.out.is_empty() {
            return Flush::Drained;
        }
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Flush::Close,
                Ok(n) => self.out_pos += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Pending,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Flush::Close,
            }
        }
        if self.out.capacity() > MAX_KEPT_OUT_BYTES {
            self.out = Vec::new();
        } else {
            self.out.clear();
        }
        self.out_pos = 0;
        self.write_started = None;
        if self.close_after_write {
            return Flush::Close;
        }
        self.idle_since = Instant::now();
        Flush::Drained
    }
}

enum Flush {
    /// Output fully drained (or nothing to drain).
    Drained,
    /// The socket would block; `EPOLLOUT` is re-armed.
    Pending,
    /// Write error, or the response said `Connection: close`.
    Close,
}

struct Table {
    conns: HashMap<u64, Arc<Mutex<Conn>>>,
    next_token: u64,
}

/// State every serving thread shares.
struct Core {
    epoll: sys::Epoll,
    listener: TcpListener,
    table: Mutex<Table>,
    handler: Arc<dyn RequestHandler>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    /// Soonest armed deadline in nanoseconds after `epoch`; may be early
    /// (a deadline that moved later), never late.
    next_deadline: AtomicU64,
    epoch: Instant,
    /// Held by the one thread sweeping deadlines.
    sweeping: Mutex<()>,
    request_timeout: Duration,
    idle_timeout: Duration,
    keepalive_requests: usize,
    max_request_bytes: usize,
    max_connections: usize,
}

/// Spawn `config.resolved_workers()` serving threads over `listener`.
/// They exit once `shutdown` is set and the listener is shut
/// (`sys::shutdown_listener`).
pub(crate) fn spawn(
    handler: Arc<dyn RequestHandler>,
    metrics: Arc<Metrics>,
    config: &ServerConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    let epoll = sys::Epoll::new()?;
    // Level-triggered, unlike the connections: a shut listener stays
    // ready, so it wakes every thread's `epoll_wait`.
    epoll.add(listener.as_raw_fd(), ep::EPOLLIN, TOKEN_LISTENER)?;
    let core = Arc::new(Core {
        epoll,
        listener,
        table: Mutex::new(Table {
            conns: HashMap::new(),
            next_token: TOKEN_LISTENER + 1,
        }),
        handler,
        metrics,
        shutdown,
        next_deadline: AtomicU64::new(NO_DEADLINE),
        epoch: Instant::now(),
        sweeping: Mutex::new(()),
        request_timeout: Duration::from_secs_f64(config.request_timeout_secs),
        idle_timeout: Duration::from_secs_f64(config.idle_timeout_secs),
        keepalive_requests: config.keepalive_requests,
        max_request_bytes: config.max_request_bytes,
        max_connections: config.max_connections,
    });
    Ok((0..config.resolved_workers())
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.run())
        })
        .collect())
}

/// Lock, recovering from a poisoned mutex (a panicking sibling) rather
/// than dying with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// `lock` without blocking: `None` while another thread holds `m`.
fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

impl Core {
    fn run(&self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 1];
        while !self.shutdown.load(Ordering::SeqCst) {
            let timeout_ms = self.sweep_if_due();
            match self.epoll.wait(&mut events, timeout_ms) {
                Ok(0) => {}
                Ok(_) => {
                    // Braced reads: fields of a packed struct must not be
                    // referenced, only copied.
                    let (token, bits) = ({ events[0].data }, { events[0].events });
                    if token == TOKEN_LISTENER {
                        self.accept_ready();
                    } else {
                        self.serve(token, bits);
                    }
                }
                Err(_) => break,
            }
        }
        // Teardown: the last thread out drops the core, closing every
        // connection and the listener.
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Fold `at` into the soonest armed deadline.
    fn arm(&self, at: Instant) {
        self.next_deadline
            .fetch_min(self.nanos(at), Ordering::SeqCst);
    }

    /// Sweep if the soonest deadline is due and no other thread is
    /// sweeping; return the `epoll_wait` timeout to the soonest deadline,
    /// at most 1 s so a deadline armed while this thread sleeps is never
    /// starved of a sweep.
    fn sweep_if_due(&self) -> i32 {
        let now = Instant::now();
        if self.nanos(now) >= self.next_deadline.load(Ordering::SeqCst) {
            if let Some(_sweeping) = try_lock(&self.sweeping) {
                // Reset before the scan, so a deadline armed during it is
                // kept.
                self.next_deadline.store(NO_DEADLINE, Ordering::SeqCst);
                self.sweep(now);
            }
        }
        let left = self
            .next_deadline
            .load(Ordering::SeqCst)
            .saturating_sub(self.nanos(Instant::now()));
        (left / 1_000_000).min(999) as i32 + 1
    }

    /// When the connection's running deadline expires, and whether expiry
    /// answers `408` (a request stalled mid-way) rather than closing
    /// quietly (an idle keep-alive connection, or a reader stalled
    /// mid-response).
    fn deadline(&self, c: &Conn) -> (Instant, bool) {
        if let Some(t0) = c.write_started {
            (t0 + self.request_timeout, false)
        } else if let Some(t0) = c.request_started {
            (t0 + self.request_timeout, true)
        } else {
            (c.idle_since + self.idle_timeout, false)
        }
    }

    /// Expire every connection past its deadline that no thread holds, and
    /// re-arm the deadlines of the rest.
    fn sweep(&self, now: Instant) {
        let mut expired = Vec::new();
        for (&token, conn) in &lock(&self.table).conns {
            let Some(c) = try_lock(conn) else { continue };
            let (at, _) = self.deadline(&c);
            if at <= now {
                expired.push((token, Arc::clone(conn)));
            } else {
                self.arm(at);
            }
        }
        for (token, conn) in expired {
            // Taken by a thread since the scan: being served again.
            let Some(mut c) = try_lock(&conn) else {
                continue;
            };
            if c.closed {
                continue;
            }
            let (at, answer_408) = self.deadline(&c);
            if at > now {
                self.arm(at);
            } else if answer_408 {
                // A stalled or dribbling client: tell it before hanging up.
                let mut response = Response::json(408, "{\"error\":\"request timeout\"}");
                response.close = true;
                self.metrics
                    .observe(Route::Other, 408, self.request_timeout);
                c.request_started = None;
                c.queue(&response);
                if self.drive(token, &mut c) {
                    self.rearm(token, &c);
                    self.arm(self.deadline(&c).0);
                }
            } else {
                // Idle keep-alive expiry closes quietly (nothing was
                // asked), as does a reader stalled mid-response.
                self.close(token, &mut c);
            }
        }
    }

    fn accept_ready(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: drained (or the listener is shut)
            }
        }
    }

    fn admit(&self, mut stream: TcpStream) {
        // Request/response on one socket is latency-bound, not
        // throughput-bound: disable Nagle so small frames leave
        // immediately instead of waiting out a delayed ACK.
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut table = lock(&self.table);
        if self.max_connections > 0
            && table.conns.len() >= self.max_connections
            && !self.shed_one(&mut table)
        {
            drop(table);
            // No connection is idle: admission control answers 429 instead
            // of letting the accept queue starve.
            self.metrics.add(Counter::AdmissionRejected, 1);
            self.metrics.observe(Route::Other, 429, Duration::ZERO);
            let mut response = Response::json(429, "{\"error\":\"too many requests\"}")
                .with_header("Retry-After", "1");
            response.close = true;
            let _ = stream.write_all(&response.to_bytes());
            return; // drops (closes) the new socket
        }
        let token = table.next_token;
        table.next_token += 1;
        let fd = stream.as_raw_fd();
        let conn = Conn::new(stream);
        let idle_deadline = conn.idle_since + self.idle_timeout;
        table.conns.insert(token, Arc::new(Mutex::new(conn)));
        if self
            .epoll
            .add(fd, ep::EPOLLIN | ep::EPOLLONESHOT, token)
            .is_err()
        {
            table.conns.remove(&token);
            return;
        }
        // Counted before the table lock drops, so no close can precede it.
        self.metrics.add(Counter::ConnectionsOpen, 1);
        drop(table);
        self.arm(idle_deadline);
    }

    /// At the connection cap, close the longest-idle sheddable connection:
    /// an idle client loses a socket it wasn't using, instead of a live
    /// client losing service. Returns whether one was shed.
    fn shed_one(&self, table: &mut Table) -> bool {
        let victim = table
            .conns
            .iter()
            .filter_map(|(&token, conn)| {
                let idle_since = try_lock(conn).filter(|c| c.sheddable())?.idle_since;
                Some((idle_since, token, Arc::clone(conn)))
            })
            .min_by_key(|&(idle_since, token, _)| (idle_since, token));
        let Some((_, token, conn)) = victim else {
            return false;
        };
        // Taken by a thread since the scan: no longer idle.
        let Some(mut c) = try_lock(&conn).filter(|c| c.sheddable()) else {
            return false;
        };
        self.close_in(table, token, &mut c);
        self.metrics.add(Counter::ConnectionsShed, 1);
        true
    }

    /// Take the connection behind `token`, answer what it sent, and re-arm
    /// it.
    fn serve(&self, token: u64, bits: u32) {
        let Some(conn) = lock(&self.table).conns.get(&token).cloned() else {
            return; // closed since the event fired
        };
        let deadline = {
            let mut c = lock(&conn);
            if c.closed {
                return;
            }
            if bits & (ep::EPOLLHUP | ep::EPOLLERR) != 0 {
                // Peer hung up (FIN both ways, or RST): nothing this
                // connection owes can be delivered, and a graceful
                // FIN-with-data arrives as plain EPOLLIN, not HUP — safe to
                // drop immediately.
                self.close(token, &mut c);
                return;
            }
            if !self.drive(token, &mut c) {
                return;
            }
            self.rearm(token, &c);
            self.deadline(&c).0
        };
        // Armed after the lock is released: a sweep that skipped this
        // connection while it was held cannot lose the deadline.
        self.arm(deadline);
    }

    /// Write what the connection is owed, answer each complete buffered
    /// request in order, and read until the socket is drained or the read
    /// budget is spent. A response is fully written before the next
    /// request is parsed. Returns `false` once the connection is closed.
    fn drive(&self, token: u64, c: &mut Conn) -> bool {
        let mut chunk = [0u8; 4096];
        let mut budget = READ_BUDGET;
        loop {
            match c.flush() {
                Flush::Drained => {}
                Flush::Pending => return true,
                Flush::Close => {
                    self.close(token, c);
                    return false;
                }
            }
            if !c.buf.is_empty() {
                match parser::parse_request(&c.buf, self.max_request_bytes) {
                    Ok(ParseOutcome::Complete(req, consumed)) => {
                        self.answer(c, req, consumed);
                        continue;
                    }
                    Ok(ParseOutcome::Incomplete) => {}
                    Err(e) => {
                        // Broken framing: answer once, then close — the
                        // byte stream can no longer be trusted to align.
                        let mut response = Response::json(
                            e.status(),
                            format!("{{\"error\":{}}}", json_str(&e.to_string())),
                        );
                        response.close = true;
                        self.metrics
                            .observe(Route::Other, response.status, Duration::ZERO);
                        c.queue(&response);
                        continue;
                    }
                }
            }
            if budget == 0 {
                return true; // yield to other connections
            }
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close(token, c);
                    return false;
                }
                Ok(n) => {
                    if c.request_started.is_none() {
                        c.request_started = Some(Instant::now());
                    }
                    c.buf.extend_from_slice(&chunk[..n]);
                    budget = budget.saturating_sub(n);
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token, c);
                    return false;
                }
            }
        }
    }

    /// Answer the parsed request at the head of the buffer into the
    /// connection's output buffer. The parser's exact `consumed`-byte
    /// accounting keeps the stream aligned; the keep-alive cap decides
    /// `close`.
    fn answer(&self, c: &mut Conn, mut req: ParsedRequest, consumed: usize) {
        c.buf.drain(..consumed);
        // Leftover bytes are the next pipelined request; its deadline
        // starts now. An empty buffer disarms it.
        c.request_started = if c.buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        c.served += 1;
        if c.served > 1 {
            self.metrics.add(Counter::KeepaliveReuses, 1);
        }
        let at_cap = self.keepalive_requests > 0 && c.served >= self.keepalive_requests;
        let started = Instant::now();
        // HEAD is GET minus the body bytes: route it as the GET, so every
        // GET route (and its cache entry) answers it.
        let head_only = req.method == "HEAD";
        if head_only {
            req.method.replace_range(.., "GET");
        }
        let (route, mut response) = self.handler.handle(&req, &self.metrics);
        response.head_only = head_only;
        response.close = !req.wants_keep_alive() || at_cap;
        // Observe before the first byte is written: a client that has read
        // a response must already see it counted in /metrics. Health probes
        // count in their own side counter so a federation front end polling
        // `/healthz` every second doesn't drown the request series.
        if route == Route::Healthz {
            self.metrics.add(Counter::Healthz, 1);
        } else {
            self.metrics
                .observe(route, response.status, started.elapsed());
        }
        c.queue(&response);
    }

    /// Re-arm the connection's one-shot registration: `EPOLLOUT` while
    /// output is owed, `EPOLLIN` otherwise (errors and hangups are always
    /// reported).
    fn rearm(&self, token: u64, c: &Conn) {
        let interest = if c.out.is_empty() {
            ep::EPOLLIN
        } else {
            ep::EPOLLOUT
        };
        let _ = self
            .epoll
            .modify(c.stream.as_raw_fd(), interest | ep::EPOLLONESHOT, token);
    }

    fn close(&self, token: u64, c: &mut Conn) {
        self.close_in(&mut lock(&self.table), token, c);
    }

    /// Remove a connection the caller holds from the table and from epoll.
    /// Its socket closes when the last handle to it drops.
    fn close_in(&self, table: &mut Table, token: u64, c: &mut Conn) {
        c.closed = true;
        table.conns.remove(&token);
        self.epoll.del(c.stream.as_raw_fd());
        self.metrics.add(Counter::ConnectionsOpen, -1);
    }
}
