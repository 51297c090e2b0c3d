// Raw syscall shims for the serve layer: epoll, poll, mmap, and a
// SO_REUSEADDR-before-bind listener and its shutdown. The workspace's
// dependency policy rules out libc/nix/mio, but std already links libc on
// every supported platform, so `extern "C"` declarations of the handful of
// calls we need resolve at link time with no new dependency.
//
// Everything here is `pub(crate)`: the public surface stays the typed
// serve API; callers never see raw fds.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

#[cfg(unix)]
use std::os::unix::io::RawFd;

// ---------------------------------------------------------------------------
// libc declarations (unix)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod ffi {
    use std::os::raw::{c_int, c_void};

    // `nfds_t` is `unsigned long` on Linux and `unsigned int` on the BSDs;
    // u64 vs u32 only matters for huge fd arrays, which we never pass, but
    // get the type right anyway.
    #[cfg(target_os = "linux")]
    pub type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = std::os::raw::c_uint;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(
            epfd: c_int,
            op: c_int,
            fd: c_int,
            event: *mut super::EpollEvent,
        ) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut super::EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn shutdown(fd: c_int, how: c_int) -> c_int;
    }
}

// ---------------------------------------------------------------------------
// epoll (linux)
// ---------------------------------------------------------------------------

/// Readiness bits, matching `<sys/epoll.h>`.
#[cfg(target_os = "linux")]
pub(crate) mod ep {
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    /// Disable the fd after one event until `EPOLL_CTL_MOD` re-arms it.
    pub const EPOLLONESHOT: u32 = 1 << 30;
}

/// `struct epoll_event`. The kernel ABI packs this to 12 bytes on x86-64
/// (`__attribute__((packed))` in the kernel headers); other architectures
/// use natural alignment.
#[cfg(target_os = "linux")]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: i32 = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: i32 = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: i32 = 3;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// An owned epoll instance. Dropping it closes the fd; registered sockets
/// deregister themselves when *their* fds close, so teardown order never
/// matters.
#[cfg(target_os = "linux")]
pub(crate) struct Epoll {
    fd: RawFd,
}

#[cfg(target_os = "linux")]
impl Epoll {
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { ffi::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` for level-triggered readiness with an opaque token.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister an fd (ignored if the fd was already closed).
    pub fn del(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: see `ctl`.
        let _ = unsafe { ffi::epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Wait for events, at most `timeout_ms` (-1 = forever). `EINTR`
    /// returns `Ok(0)` — callers loop and recompute deadlines anyway.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid mutable slice; the kernel writes at
        // most `len` entries.
        let rc = unsafe {
            ffi::epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        unsafe { ffi::close(self.fd) };
    }
}

/// Stop a listening socket for good (`shutdown(SHUT_RD)`): queued and new
/// connection attempts are refused, `accept` fails, and the socket reports
/// `EPOLLHUP` from now on — level-triggered, so every thread waiting on an
/// epoll instance it is registered in wakes.
#[cfg(target_os = "linux")]
pub(crate) fn shutdown_listener(listener: &TcpListener) {
    use std::os::unix::io::AsRawFd;
    const SHUT_RD: std::os::raw::c_int = 0;
    // SAFETY: plain syscall on an fd `listener` keeps open.
    unsafe { ffi::shutdown(listener.as_raw_fd(), SHUT_RD) };
}

// ---------------------------------------------------------------------------
// Listener bind with SO_REUSEADDR
// ---------------------------------------------------------------------------

/// Bind a TCP listener with `SO_REUSEADDR` set *before* `bind`, so a
/// restarted server (or a test re-binding a just-closed port) never flakes
/// on `EADDRINUSE` while the old socket lingers in TIME_WAIT. std's
/// `TcpListener::bind` does not set the option on Linux, so IPv4 binds go
/// through a raw `socket`/`setsockopt`/`bind`/`listen` sequence; anything
/// else falls back to std behaviour.
pub(crate) fn bind_reuseaddr(addr: &str) -> io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        use std::net::SocketAddr;
        if let Ok(SocketAddr::V4(v4)) = addr.parse::<SocketAddr>() {
            return bind_reuseaddr_v4(v4);
        }
    }
    TcpListener::bind(addr)
}

#[cfg(target_os = "linux")]
fn bind_reuseaddr_v4(addr: std::net::SocketAddrV4) -> io::Result<TcpListener> {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::FromRawFd;

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    // SAFETY: plain syscall.
    let fd = unsafe { ffi::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Close the raw fd on any error below.
    let fail = |fd: RawFd| -> io::Error {
        let err = io::Error::last_os_error();
        // SAFETY: fd is ours and not yet wrapped.
        unsafe { ffi::close(fd) };
        err
    };

    let one: c_int = 1;
    // SAFETY: `one` is a valid 4-byte int for the duration of the call.
    let rc = unsafe {
        ffi::setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            &one as *const c_int as *const c_void,
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(fail(fd));
    }

    let sa = SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: addr.port().to_be(),
        sin_addr: u32::from(*addr.ip()).to_be(),
        sin_zero: [0; 8],
    };
    // SAFETY: `sa` is a properly laid out sockaddr_in.
    let rc = unsafe {
        ffi::bind(
            fd,
            &sa as *const SockaddrIn as *const c_void,
            std::mem::size_of::<SockaddrIn>() as u32,
        )
    };
    if rc < 0 {
        return Err(fail(fd));
    }
    // SAFETY: plain syscall on our fd.
    let rc = unsafe { ffi::listen(fd, 1024) };
    if rc < 0 {
        return Err(fail(fd));
    }
    // SAFETY: fd is a freshly bound+listening TCP socket we own.
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

// ---------------------------------------------------------------------------
// Read-only file mappings (mmap)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod mmap_ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// Validated-snapshot bytes held one of two ways: a read-only, privately
/// mapped view of a whole file (raw `mmap`, released with `munmap` on
/// drop), or an owned 8-byte-aligned heap copy (backed by `Vec<u64>`).
/// Readers see the same `&[u8]` either way.
///
/// A mapping outlives the fd (the file is closed as soon as the map
/// exists) and survives a rename-over of its path — the pages belong to
/// the *inode* — which is exactly what the hot-reload publish protocol
/// needs: the old snapshot's mapping stays valid until the last `Arc`
/// holding it drops, while new loads map the fresh inode.
///
/// Both bases are at least 8-byte-aligned (page-aligned by the kernel, or
/// `u64`-aligned by the allocator), so 8-byte-aligned offsets within the
/// bytes are 8-byte-aligned in memory — the invariant the zero-copy column
/// readers in `scorer` rely on.
pub(crate) struct Mapping {
    ptr: *const u8,
    len: usize,
    /// The heap copy `ptr` points into; `None` for a kernel mapping.
    owned: Option<Vec<u64>>,
}

impl Mapping {
    /// Map the file at `path` read-only in its entirety. Zero-length files
    /// yield an empty mapping without calling `mmap` (which rejects
    /// `len == 0`).
    #[cfg(unix)]
    pub fn map_path(path: &std::path::Path) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space"))?;
        if len == 0 {
            return Ok(Mapping { ptr: std::ptr::null(), len: 0, owned: None });
        }
        // SAFETY: plain syscall; the kernel picks the address. The fd is
        // valid for the duration of the call, and the mapping is
        // independent of it afterwards.
        let ptr = unsafe {
            mmap_ffi::mmap(
                std::ptr::null_mut(),
                len,
                mmap_ffi::PROT_READ,
                mmap_ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping { ptr: ptr as *const u8, len, owned: None })
    }

    /// Without `mmap`, read the file into an owned aligned copy: no
    /// page-cache sharing, identical semantics.
    #[cfg(not(unix))]
    pub fn map_path(path: &std::path::Path) -> io::Result<Self> {
        Ok(Self::copy_of(&std::fs::read(path)?))
    }

    /// An owned 8-byte-aligned copy of `bytes`.
    pub fn copy_of(bytes: &[u8]) -> Self {
        let mut buf = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: u64 buffer reinterpreted as bytes; lengths match.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, buf.len() * 8)
        };
        dst[..bytes.len()].copy_from_slice(bytes);
        // Moving the Vec into the struct keeps its heap buffer in place.
        Mapping { ptr: buf.as_ptr() as *const u8, len: bytes.len(), owned: Some(buf) }
    }

    /// True for a kernel file mapping, false for an owned copy.
    pub fn is_mapped(&self) -> bool {
        self.owned.is_none()
    }

    /// The held bytes.
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` addresses `len` initialized bytes that we own until
        // drop: a live PROT_READ | MAP_PRIVATE mapping (no other process
        // can mutate our view) or the never-mutated `owned` buffer.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

// SAFETY: `ptr`/`len` address bytes nothing ever writes — a PROT_READ
// private mapping this value alone unmaps, or `owned`, a plain `Vec<u64>`
// never touched after construction — so moving the value or sharing
// `&Mapping` across threads is no different from sharing a `&[u8]`.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.owned.is_none() && self.len > 0 {
            // SAFETY: `ptr`/`len` describe a mapping we created and have
            // not unmapped before; after this the struct is gone.
            unsafe { mmap_ffi::munmap(self.ptr as *mut std::os::raw::c_void, self.len) };
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Waiting on several sockets at once (poll)
// ---------------------------------------------------------------------------

/// Wait until one of `socks` is ready — readable, or also writable where
/// its flag asks — or until `deadline`, and return how many are (`0` at
/// the deadline). Hangups and errors count as ready: the next read or write
/// reports them. Always polls at least once, with a zero timeout if the
/// deadline has passed, so a caller held up elsewhere still sees what
/// arrived meanwhile. `EINTR` polls again with the time left.
#[cfg(unix)]
pub(crate) fn poll_until(socks: &[(&TcpStream, bool)], deadline: Instant) -> io::Result<usize> {
    use std::os::unix::io::AsRawFd;
    let mut fds: Vec<ffi::PollFd> = socks
        .iter()
        .map(|(sock, write)| ffi::PollFd {
            fd: sock.as_raw_fd(),
            events: if *write { ffi::POLLIN | ffi::POLLOUT } else { ffi::POLLIN },
            revents: 0,
        })
        .collect();
    loop {
        // Round up, so a sub-millisecond wait sleeps instead of spinning.
        let left = deadline.saturating_duration_since(Instant::now());
        let ms = left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a valid array of `fds.len()` entries, exclusively
        // borrowed for the duration of the call.
        let rc = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as ffi::NfdsT, ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Without `poll` nothing can wait on several sockets. Serving (and so
/// federation) is Linux-only; this only keeps the crate building elsewhere.
#[cfg(not(unix))]
pub(crate) fn poll_until(_socks: &[(&TcpStream, bool)], _deadline: Instant) -> io::Result<usize> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "poll needs unix"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn bind_reuseaddr_yields_working_listener() {
        let listener = bind_reuseaddr("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.write_all(b"ok").expect("write");
        });
        let mut c = TcpStream::connect(addr).expect("connect");
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).expect("read");
        assert_eq!(buf, b"ok");
        t.join().expect("join");
    }

    #[test]
    fn bind_reuseaddr_allows_immediate_rebind() {
        // Bind, connect (so the listener socket sees traffic), drop, and
        // immediately re-bind the same port. Without SO_REUSEADDR this
        // flakes on EADDRINUSE while TIME_WAIT lingers.
        let listener = bind_reuseaddr("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let c = TcpStream::connect(addr).expect("connect");
        let (s, _) = listener.accept().expect("accept");
        drop(s);
        drop(c);
        drop(listener);
        let again = bind_reuseaddr(&addr.to_string()).expect("rebind");
        assert_eq!(again.local_addr().expect("addr").port(), addr.port());
    }

    #[test]
    fn mapping_round_trips_and_survives_rename_over() {
        let dir = std::env::temp_dir().join(format!("pipefail_sys_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("data.bin");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &payload).expect("write");

        let map = Mapping::map_path(&path).expect("map");
        assert_eq!(map.bytes(), &payload[..]);
        assert_eq!(map.bytes().as_ptr() as usize % 8, 0, "base must be 8-aligned");
        assert!(map.is_mapped());

        // An owned copy of an odd length holds the same bytes, aligned.
        let copy = Mapping::copy_of(&payload[..payload.len() - 3]);
        assert_eq!(copy.bytes(), &payload[..payload.len() - 3]);
        assert_eq!(copy.bytes().as_ptr() as usize % 8, 0, "copy must be 8-aligned");
        assert!(!copy.is_mapped());

        // Rename a new file over the mapped one: the mapping still sees the
        // old inode's bytes — the atomic-publish property reload relies on.
        let tmp = dir.join("data.bin.tmp");
        std::fs::write(&tmp, b"replaced").expect("write replacement");
        std::fs::rename(&tmp, &path).expect("rename over");
        assert_eq!(map.bytes(), &payload[..]);

        // Empty files map (trivially) without error.
        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").expect("write empty");
        let map = Mapping::map_path(&empty).expect("map empty");
        assert!(map.bytes().is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_readable_socket() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let epoll = Epoll::new().expect("epoll");
        epoll
            .add(server.as_raw_fd(), ep::EPOLLIN, 42)
            .expect("add");

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing readable yet.
        let n = epoll.wait(&mut events, 0).expect("wait");
        assert_eq!(n, 0);

        client.write_all(b"x").expect("write");
        let n = epoll.wait(&mut events, 2000).expect("wait");
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 42);
        assert_ne!({ ev.events } & ep::EPOLLIN, 0);
    }
}
