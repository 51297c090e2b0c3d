//! The load generator and a closed-loop helper client.
//!
//! [`run_open_loop`] is one thread driving a [`Plan`] over
//! [`CONNECTIONS`] pipelined keep-alive connections. Operation `i` goes
//! out on connection `i % CONNECTIONS` at its scheduled time whether or
//! not earlier answers have arrived, so a stall in the server delays every
//! later answer and shows in their latencies, which run from the scheduled
//! send to the last response byte. Timed waits use `ppoll` with a 1 ns
//! timer slack.
//!
//! The server closes a connection after its per-connection request cap
//! (`ServerConfig::default().keepalive_requests`) with `Connection:
//! close`. A connection therefore carries at most that many requests;
//! later ones wait on the client until the server's close arrives and a
//! fresh connection takes them. Pipelining past the cap would have the
//! server drop every request behind the close, and re-sending that whole
//! backlog each time turns one host stall into a collapse. A connection
//! that closes or fails early is reopened at once and every request it left
//! unanswered is sent again, still timed from its original schedule.
//!
//! An operation unanswered at its deadline fails but stays on its
//! connection: answers come in request order, so its late answer is read
//! and ignored, and nothing is re-sent or reconnected on its account.

use crate::framing::{Response, ResponseReader};
use crate::schedule::{Digest, Plan};
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use pipefail_serve::ServerConfig;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Keep-alive connections the generator drives.
pub const CONNECTIONS: usize = 2;

/// An operation unanswered this long after its scheduled send fails, and
/// counts at this latency: the server's own default request timeout
/// (`ServerConfig::default().request_timeout_secs`). A shared host can
/// stall the whole VM for seconds, which is no fault of the program: with
/// a 2 s deadline, and the connection torn down and its requests re-sent
/// at each expiry, stopping a 2-vCPU `lookup` run for 3 s (SIGSTOP)
/// failed 58,547 of its 180,796 operations.
pub const DEADLINE_NS: u64 = 10_000_000_000;

/// Sends of one operation before it is given up as failed.
const MAX_ATTEMPTS: u8 = 4;

/// Length of the host-noise windows the phase is cut into.
pub const WINDOW_NS: u64 = 20_000_000;

/// One window of the measured phase and how much CPU the hypervisor
/// stole from this VM during it. Windows tile the phase, so each starts
/// where the previous one ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// End, ns from phase start.
    pub end_ns: u64,
    /// Steal ticks (`/proc/stat`, all CPUs) during the window.
    pub steal_ticks: u64,
}

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Not answered (yet).
    Pending,
    /// `200` with exactly the expected body.
    Ok,
    /// Answered with another status.
    Status,
    /// `200` with a body that differs from the reference.
    Mismatch,
    /// Unanswered at its deadline, or given up after repeated resends.
    Timeout,
}

/// Per-operation results of one open-loop phase.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// When the generator dispatched each operation (wrote it, or held it
    /// for the connection that replaces a capped one), ns from phase start.
    pub sent_ns: Vec<u64>,
    /// Time the last response byte was read, ns from phase start.
    pub done_ns: Vec<u64>,
    /// `X-Pipefail-Epoch` of each answer (0 when absent).
    pub epoch: Vec<u64>,
    /// How each operation ended.
    pub fate: Vec<Fate>,
    /// Connections opened after the first ones.
    pub reconnects: usize,
    /// Requests sent again on a fresh connection.
    pub resent: usize,
    /// Side actions (renames) that failed.
    pub action_errors: usize,
    /// Phase wall time: start to last resolution, ns.
    pub wall_ns: u64,
    /// CPU time of the generator thread over the phase, ns.
    pub generator_cpu_ns: u64,
    /// CPU time of the whole process over the phase, ns.
    pub process_cpu_ns: u64,
    /// The phase cut into [`WINDOW_NS`] windows.
    pub windows: Vec<Window>,
}

impl Outcome {
    /// Operations that did not end [`Fate::Ok`].
    pub fn failed(&self) -> usize {
        self.fate.iter().filter(|f| **f != Fate::Ok).count()
    }

    /// Operations answered with an unexpected body.
    pub fn mismatched(&self) -> usize {
        self.fate.iter().filter(|f| **f == Fate::Mismatch).count()
    }

    /// Latency of operation `i` in µs from `start_ns[i]` (its schedule or
    /// its dispatch) to the last response byte, or the deadline when it
    /// failed.
    pub fn latency_us(&self, start_ns: &[u64], i: usize) -> f64 {
        if self.fate[i] == Fate::Ok {
            self.done_ns[i].saturating_sub(start_ns[i]) as f64 / 1e3
        } else {
            DEADLINE_NS as f64 / 1e3
        }
    }

    /// How late each operation's first send left, in µs.
    pub fn lateness_us(&self, due_ns: &[u64]) -> Vec<f64> {
        self.sent_ns
            .iter()
            .zip(due_ns)
            .filter(|(s, _)| **s != u64::MAX)
            .map(|(s, d)| s.saturating_sub(*d) as f64 / 1e3)
            .collect()
    }

    /// Server CPU per completed operation in µs: process CPU minus the
    /// generator thread's and `other_ns` (the harness's other threads),
    /// over the operations answered.
    pub fn cpu_us_per_op(&self, other_ns: u64) -> f64 {
        let answered = self
            .fate
            .iter()
            .filter(|f| **f != Fate::Timeout)
            .count()
            .max(1);
        self.process_cpu_ns
            .saturating_sub(self.generator_cpu_ns)
            .saturating_sub(other_ns) as f64
            / 1e3
            / answered as f64
    }

    /// Which windows are steal-free: no steal tick recorded while they or
    /// the window before them ran (a stall's backlog drains into the next
    /// window). When fewer than a fifth qualify, the fifth with the least
    /// steal over the same two windows, so the figures always rest on at
    /// least a fifth of the phase.
    pub fn quiet_windows(&self) -> Vec<bool> {
        let w = &self.windows;
        let steal = |i: usize| w[i].steal_ticks + if i > 0 { w[i - 1].steal_ticks } else { 0 };
        let mut quiet: Vec<bool> = (0..w.len()).map(|i| steal(i) == 0).collect();
        let need = w.len().div_ceil(5);
        if quiet.iter().filter(|q| **q).count() < need {
            let mut order: Vec<usize> = (0..w.len()).collect();
            order.sort_by_key(|&i| steal(i));
            quiet = vec![false; w.len()];
            for &i in &order[..need] {
                quiet[i] = true;
            }
        }
        quiet
    }

    /// Latencies (µs, from `start_ns`) of the operations started and
    /// answered inside `chosen` windows; a failed operation counts (at the
    /// deadline) when it started inside one.
    pub fn latencies_in(&self, start_ns: &[u64], chosen: &[bool]) -> Vec<f64> {
        let window_of = |t: u64| {
            self.windows
                .partition_point(|w| w.end_ns <= t)
                .min(self.windows.len().saturating_sub(1))
        };
        (0..start_ns.len())
            .filter(|&i| {
                chosen[window_of(start_ns[i])]
                    && (self.fate[i] != Fate::Ok || chosen[window_of(self.done_ns[i])])
            })
            .map(|i| self.latency_us(start_ns, i))
            .collect()
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Operations written to this connection, oldest first.
    inflight: VecDeque<usize>,
    /// Operations waiting for the next connection (this one is at its cap).
    held: VecDeque<usize>,
    /// Requests written to this connection so far.
    sent: usize,
    reader: ResponseReader,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(4096),
            out_pos: 0,
            inflight: VecDeque::new(),
            held: VecDeque::new(),
            sent: 0,
            reader: ResponseReader::new(),
        })
    }

    /// Write `op` now, or hold it for the next connection once this one
    /// has carried `cap` requests (`cap` 0: unlimited).
    fn queue(&mut self, op: usize, request: &[u8], cap: usize) {
        if cap > 0 && self.sent >= cap {
            self.held.push_back(op);
        } else {
            self.out.extend_from_slice(request);
            self.inflight.push_back(op);
            self.sent += 1;
        }
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Write what the socket accepts; `Err` means the connection is gone.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Read everything available; `true` when the peer closed or failed.
    fn fill(&mut self, buf: &mut [u8]) -> bool {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return true,
                Ok(n) => self.reader.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }
}

struct Generator<'a> {
    plan: &'a Plan,
    addr: SocketAddr,
    cap: usize,
    t0: Instant,
    out: Outcome,
    attempts: Vec<u8>,
    resolved: usize,
}

impl Generator<'_> {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn request(&self, op: usize) -> Vec<u8> {
        self.plan.request(self.plan.key_of[op])
    }

    fn resolve(&mut self, op: usize, fate: Fate) {
        self.out.fate[op] = fate;
        self.resolved += 1;
    }

    fn pending(&self, op: usize) -> bool {
        self.out.fate[op] == Fate::Pending
    }

    /// The oldest unresolved operation of `conn` and whether it is still
    /// held (never written).
    fn oldest_pending(&self, conn: &Conn) -> Option<(usize, bool)> {
        match conn.inflight.iter().copied().find(|&op| self.pending(op)) {
            Some(op) => Some((op, false)),
            None => conn.held.front().map(|&op| (op, true)),
        }
    }

    /// Fail every operation of `conn` past its deadline at `now`. Written
    /// ones stay in flight (their answers keep the pipeline in step); held
    /// ones are dropped.
    fn expire(&mut self, conn: &mut Conn, now: u64) {
        while let Some((op, held)) = self.oldest_pending(conn) {
            if now <= self.plan.due_ns[op] + DEADLINE_NS {
                break;
            }
            if held {
                conn.held.pop_front();
            }
            self.resolve(op, Fate::Timeout);
        }
    }

    /// Replace a closed connection: send the requests it left unanswered
    /// again, then the ones held for it, in schedule order. Operations
    /// already failed are not sent again.
    fn reopen(&mut self, conn: &mut Conn) -> io::Result<()> {
        let unanswered: Vec<usize> = conn
            .inflight
            .drain(..)
            .filter(|&op| self.pending(op))
            .collect();
        let held: Vec<usize> = conn.held.drain(..).collect();
        *conn = Conn::open(self.addr)?;
        self.out.reconnects += 1;
        for op in unanswered {
            if self.attempts[op] >= MAX_ATTEMPTS {
                self.resolve(op, Fate::Timeout);
            } else {
                self.attempts[op] += 1;
                self.out.resent += 1;
                conn.queue(op, &self.request(op), self.cap);
            }
        }
        for op in held {
            conn.queue(op, &self.request(op), self.cap);
        }
        // A failed write shows up as a closed connection on the next poll.
        let _ = conn.flush();
        Ok(())
    }

    /// Frame every buffered response; `true` when the connection must be
    /// replaced (the server closed it or the stream is unframeable).
    fn drain(&mut self, conn: &mut Conn, at: u64) -> bool {
        loop {
            let response: Response = match conn.reader.next_response() {
                Ok(Some(r)) => r,
                Ok(None) => return false,
                Err(_) => return true,
            };
            let Some(op) = conn.inflight.pop_front() else {
                return true;
            };
            if self.pending(op) {
                self.out.done_ns[op] = at;
                self.out.epoch[op] = response.epoch.unwrap_or(0);
                let key = &self.plan.keys[self.plan.key_of[op] as usize];
                let fate = if response.status != 200 {
                    Fate::Status
                } else if Digest::of(&response.body) != key.expect {
                    Fate::Mismatch
                } else {
                    Fate::Ok
                };
                self.resolve(op, fate);
            }
            if response.close {
                return true;
            }
        }
    }
}

/// Drive `plan` against `addr` from the calling thread and report what
/// happened to every operation. Runs the plan's side actions (renames) at
/// their times on the same thread.
pub fn run_open_loop(addr: SocketAddr, plan: &Plan) -> io::Result<Outcome> {
    sys::set_timer_slack_ns(1)?;
    let n = plan.len();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        conns.push(Conn::open(addr)?);
    }
    let mut d = Generator {
        plan,
        addr,
        cap: ServerConfig::default().keepalive_requests,
        t0: Instant::now(),
        out: Outcome {
            sent_ns: vec![u64::MAX; n],
            done_ns: vec![u64::MAX; n],
            epoch: vec![0; n],
            fate: vec![Fate::Pending; n],
            reconnects: 0,
            resent: 0,
            action_errors: 0,
            wall_ns: 0,
            generator_cpu_ns: 0,
            process_cpu_ns: 0,
            windows: Vec::new(),
        },
        attempts: vec![0; n],
        resolved: 0,
    };
    let gen_cpu0 = sys::thread_cpu_ns();
    let proc_cpu0 = sys::process_cpu_ns();
    d.t0 = Instant::now();
    let mut window = WindowClock::start(0);
    let hard_stop = plan.due_ns.last().copied().unwrap_or(0) + DEADLINE_NS + 1_000_000_000;
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut next_action = 0usize;
    let mut fds = [PollFd {
        fd: 0,
        events: 0,
        revents: 0,
    }; CONNECTIONS];

    loop {
        let now = d.now();
        if now >= window.start_ns + WINDOW_NS {
            d.out.windows.push(window.roll(now));
        }
        while next_action < plan.actions.len() && plan.actions[next_action].at_ns <= now {
            let a = &plan.actions[next_action];
            if std::fs::rename(&a.from, &a.to).is_err() {
                d.out.action_errors += 1;
            }
            next_action += 1;
        }
        while next < n && plan.due_ns[next] <= now {
            let c = next % CONNECTIONS;
            conns[c].queue(next, &d.request(next), d.cap);
            d.attempts[next] = 1;
            d.out.sent_ns[next] = d.now();
            next += 1;
        }
        for conn in conns.iter_mut() {
            if conn.wants_write() && conn.flush().is_err() {
                d.reopen(conn)?;
            }
        }
        let now = d.now();
        for conn in conns.iter_mut() {
            d.expire(conn, now);
        }
        if next == n && next_action == plan.actions.len() && d.resolved == n {
            break;
        }
        if now > hard_stop {
            for conn in conns.iter_mut() {
                let stuck: Vec<usize> =
                    conn.inflight.drain(..).chain(conn.held.drain(..)).collect();
                for op in stuck {
                    if d.pending(op) {
                        d.resolve(op, Fate::Timeout);
                    }
                }
            }
            break;
        }

        let mut wake = hard_stop;
        if next < n {
            wake = wake.min(plan.due_ns[next]);
        }
        if next_action < plan.actions.len() {
            wake = wake.min(plan.actions[next_action].at_ns);
        }
        for conn in &conns {
            if let Some((op, _)) = d.oldest_pending(conn) {
                wake = wake.min(plan.due_ns[op] + DEADLINE_NS + 1);
            }
        }
        for (fd, conn) in fds.iter_mut().zip(&conns) {
            fd.fd = conn.stream.as_raw_fd();
            fd.events = POLLIN | if conn.wants_write() { POLLOUT } else { 0 };
            fd.revents = 0;
        }
        sys::poll_ns(&mut fds, Some(wake.saturating_sub(d.now())))?;
        for (fd, conn) in fds.iter().zip(conns.iter_mut()) {
            if fd.revents & (POLLIN | POLLHUP | POLLERR) == 0 {
                continue;
            }
            let closed = conn.fill(&mut buf);
            let at = d.now();
            let replace = d.drain(conn, at);
            if closed || replace {
                d.reopen(conn)?;
            }
        }
    }
    d.out.wall_ns = d.now();
    d.out.windows.push(window.roll(d.out.wall_ns));
    d.out.generator_cpu_ns = sys::thread_cpu_ns() - gen_cpu0;
    d.out.process_cpu_ns = sys::process_cpu_ns() - proc_cpu0;
    Ok(d.out)
}

/// The open window: where it started and the steal counter there.
struct WindowClock {
    start_ns: u64,
    steal: u64,
}

impl WindowClock {
    fn start(at_ns: u64) -> Self {
        Self {
            start_ns: at_ns,
            steal: sys::cpu_ticks().0,
        }
    }

    /// Close the current window at `at_ns` and start the next one there.
    fn roll(&mut self, at_ns: u64) -> Window {
        let next = Self::start(at_ns);
        let window = Window {
            end_ns: at_ns,
            steal_ticks: next.steal.saturating_sub(self.steal),
        };
        *self = next;
        window
    }
}

/// A blocking keep-alive client for set-up, references and closed-loop
/// probes; reconnects whenever the server closes the connection.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    reader: ResponseReader,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            reader: ResponseReader::new(),
        }
    }

    /// Send one request and read its response, reconnecting and retrying
    /// (every request the harness sends is a pure query) when the server
    /// had closed the connection.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Response> {
        let mut last = io::Error::other("no attempt");
        for _ in 0..3 {
            match self.try_call(request) {
                Ok(r) => {
                    if r.close {
                        self.stream = None;
                    }
                    return Ok(r);
                }
                Err(e) => {
                    self.stream = None;
                    last = e;
                }
            }
        }
        Err(last)
    }

    fn try_call(&mut self, request: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
            self.reader.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.reader.next_response() {
                Ok(Some(r)) => return Ok(r),
                Ok(None) => {}
                Err(e) => return Err(io::Error::other(e.to_string())),
            }
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.reader.push(&buf[..n]);
        }
    }
}
