//! API-subset stand-in for [`mio`](https://docs.rs/mio) 0.8 — readiness-driven
//! I/O over Linux `epoll`.
//!
//! The build environment has no crates.io access, so this shim vendors
//! exactly the surface the `phttp-proto` reactor uses: [`Poll`] /
//! [`Registry`] / [`Events`] over an `epoll` instance, [`Token`]s to
//! identify registered sources, [`Interest`] flags, a [`Waker`] (an
//! `eventfd` registered edge-triggered), and non-blocking
//! [`net::TcpListener`] / [`net::TcpStream`] wrappers.
//!
//! Deviations from upstream `mio`, all documented in `shims/README.md`:
//!
//! * **Level-triggered.** Upstream mio registers edge-triggered and asks
//!   consumers to drain until `WouldBlock`. This shim registers sockets
//!   level-triggered (the `Waker`'s eventfd is the only edge-triggered
//!   registration), which tolerates partial drains at a small cost in
//!   redundant wakeups — the simpler contract for a reproduction.
//! * **`net::TcpStream::connect`** is a true non-blocking connect
//!   (`EINPROGRESS` handshake), as upstream. It must be: a reactor
//!   shard dials peer listeners that other (or the same!) shards
//!   accept on, and a blocking loopback connect against a full
//!   backlog of a listener owned by the calling loop would deadlock
//!   the loop against itself. Completion surfaces as writability;
//!   failure as an error from the next read/write. (IPv6 only falls
//!   back to a blocking std connect; nothing in-tree dials IPv6.)
//! * **Linux only.** `epoll` and `eventfd` are used directly via
//!   `extern "C"` bindings (no `libc` crate in this environment).
//! * **`net::TcpListener::bind_reuseport`** is an extension upstream
//!   mio does not carry (there it comes via `socket2`): a raw
//!   `socket`/`setsockopt SO_REUSEPORT`/`bind`/`listen` sequence so the
//!   reactor's shards can each bind their own accept socket on one
//!   shared address. IPv4 only; the cluster treats the error as fatal at
//!   start, like any other failed bind.
//! * **`net::TcpStream::write_vectored`** is an inherent method over a
//!   raw `writev(2)` binding (upstream defers to std's `Write`
//!   implementation): scatter-gather output for the zero-copy response
//!   path, clamped to [`net::IOV_MAX`] entries per call.

#![deny(missing_docs)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

mod sys {
    //! Raw Linux syscall bindings (via the always-linked system libc).
    use std::os::raw::{c_int, c_long, c_uint, c_void};

    /// Kernel `struct epoll_event`. The UAPI declares it packed on
    /// x86_64 only; everywhere else it has natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const AF_INET: c_int = 2;
    pub const SOCK_STREAM: c_int = 1;
    pub const SOCK_CLOEXEC: c_int = 0o2000000;
    pub const SOCK_NONBLOCK: c_int = 0o4000;
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_REUSEADDR: c_int = 2;
    pub const SO_REUSEPORT: c_int = 15;
    pub const EINPROGRESS: i32 = 115;
    pub const EINTR: i32 = 4;
    pub const ENOSYS: i32 = 38;

    /// `epoll_pwait2(2)`'s syscall number — 441 on every Linux
    /// architecture (it postdates the unified syscall table).
    pub const SYS_EPOLL_PWAIT2: c_long = 441;
    /// Size of the kernel's `sigset_t`, which the raw syscall takes
    /// beside the (here always null) mask pointer.
    pub const KERNEL_SIGSET_SIZE: usize = 8;

    /// Kernel `struct __kernel_timespec`: both fields 64-bit on every
    /// ABI, which is what the raw `epoll_pwait2` syscall reads.
    #[repr(C)]
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// Kernel `struct sockaddr_in` (IPv4 only — the reuseport group bind
    /// below is loopback-IPv4 by construction).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct SockaddrIn {
        pub sin_family: u16,
        /// Network byte order.
        pub sin_port: u16,
        /// Network byte order.
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    /// Kernel `struct iovec` for `writev(2)`. `std::io::IoSlice` is
    /// documented ABI-compatible with this layout on Unix, which is what
    /// lets [`crate::net::TcpStream::write_vectored`] pass a slice of
    /// `IoSlice` straight to the syscall.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub iov_base: *const c_void,
        pub iov_len: usize,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        // SAFETY: every libc exports the variadic `syscall(2)` wrapper
        // (errors come back as -1 + errno). It is only ever called as
        // `epoll_pwait2` — number, then (epfd, events, maxevents,
        // timeout, sigmask, sigsetsize) — which glibc wraps by name only
        // from 2.34, so going through `syscall` leaves the kernel's own
        // ENOSYS (Linux < 5.11, handled in `Poll::poll`) as the one way
        // the call can be missing: nothing fails to link.
        pub fn syscall(num: c_long, ...) -> c_long;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const SockaddrIn, addrlen: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const SockaddrIn, addrlen: u32) -> c_int;
        pub fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    }
}

/// Identifies a registered event source; carried through the kernel in
/// the `epoll_event` user-data word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Readiness interests a source is registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness.
    pub const READABLE: Interest = Interest(1);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(2);
    /// No interests — the source stays registered but only error/hangup
    /// conditions (which `epoll` always reports) are delivered. Upstream
    /// mio has no such value; the reactor uses it for connections that
    /// are quiescent on the socket while waiting on internal events
    /// (e.g. an emulated disk read), where re-arming `READABLE` on an
    /// already-EOF'd socket would storm a level-triggered poller.
    pub const NONE: Interest = Interest(0);

    /// Combines two interests (upstream mio's `Interest::add`).
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether read readiness is included.
    pub const fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether write readiness is included.
    pub const fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }

    fn to_epoll(self) -> u32 {
        let mut bits = 0;
        if self.is_readable() {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.is_writable() {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// Event-source types that can be registered with a [`Registry`].
pub mod event {
    use std::os::fd::RawFd;

    /// A registerable event source (anything with a file descriptor).
    pub trait Source {
        /// The descriptor `epoll` should watch.
        fn raw_fd(&self) -> RawFd;
    }

    /// One readiness event returned by [`crate::Poll::poll`].
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        pub(crate) bits: u32,
        pub(crate) token: crate::Token,
    }

    impl Event {
        /// The token the source was registered with.
        pub fn token(&self) -> crate::Token {
            self.token
        }

        /// Read readiness — includes hangup and error conditions, which a
        /// read will surface as EOF or an error.
        pub fn is_readable(&self) -> bool {
            self.bits & (super::sys::EPOLLIN | super::sys::EPOLLHUP | super::sys::EPOLLRDHUP) != 0
                || self.is_error()
        }

        /// Write readiness — includes error conditions, which a write
        /// will surface.
        pub fn is_writable(&self) -> bool {
            self.bits & (super::sys::EPOLLOUT | super::sys::EPOLLHUP) != 0 || self.is_error()
        }

        /// The peer closed (its write half of) the stream.
        pub fn is_read_closed(&self) -> bool {
            self.bits & (super::sys::EPOLLHUP | super::sys::EPOLLRDHUP) != 0
        }

        /// An error condition is pending on the source.
        pub fn is_error(&self) -> bool {
            self.bits & super::sys::EPOLLERR != 0
        }
    }
}

/// A buffer of readiness events filled by [`Poll::poll`].
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// Creates a buffer holding at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterates over the events of the last poll.
    pub fn iter(&self) -> impl Iterator<Item = event::Event> + '_ {
        self.buf[..self.len].iter().map(|e| event::Event {
            bits: e.events,
            token: Token(e.data as usize),
        })
    }

    /// Whether the last poll returned no events (i.e. it timed out).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Handle for registering event sources with a [`Poll`] instance.
#[derive(Debug)]
pub struct Registry {
    epfd: RawFd,
}

impl Registry {
    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: Token) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token.0 as u64,
        };
        // SAFETY: plain FFI call; `ev` is a live stack value for the
        // duration of the call and the kernel validates both fds.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `source` for `interests` under `token` (level-triggered).
    pub fn register(
        &self,
        source: &mut impl event::Source,
        token: Token,
        interests: Interest,
    ) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            source.raw_fd(),
            interests.to_epoll(),
            token,
        )
    }

    /// Changes the interests (and/or token) of a registered source.
    pub fn reregister(
        &self,
        source: &mut impl event::Source,
        token: Token,
        interests: Interest,
    ) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            source.raw_fd(),
            interests.to_epoll(),
            token,
        )
    }

    /// Removes a source from the poller. Dropping a registered source
    /// also deregisters it (the kernel removes closed descriptors), but
    /// explicit deregistration keeps teardown deterministic.
    pub fn deregister(&self, source: &mut impl event::Source) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, source.raw_fd(), 0, Token(0))
    }
}

/// An `epoll` instance plus its registration handle.
#[derive(Debug)]
pub struct Poll {
    ep: OwnedFd,
    registry: Registry,
}

impl Poll {
    /// Creates a fresh `epoll` instance.
    pub fn new() -> io::Result<Poll> {
        // SAFETY: plain FFI call taking no pointers.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned open by epoll_create1, nothing
        // else owns it, and OwnedFd becomes its sole closer.
        let ep = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poll {
            registry: Registry { epfd: fd },
            ep,
        })
    }

    /// The registration handle.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Blocks until at least one registered source is ready or `timeout`
    /// elapses (`None` blocks indefinitely). The wait is passed to the
    /// kernel at nanosecond resolution (`epoll_pwait2`), so a deadline
    /// 30 µs away costs 30 µs, not a millisecond. Where the kernel
    /// lacks the call the wait falls back to `epoll_wait`, rounded *up*
    /// to whole milliseconds — late, never a busy spin on zero.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        loop {
            let rc = match timeout {
                Some(d) if !PWAIT2_MISSING.load(Ordering::Relaxed) => {
                    let ts = timespec_of(d);
                    // SAFETY: the arguments are `epoll_pwait2`'s, every
                    // one register-wide as `syscall` reads them. `buf`
                    // as for `epoll_wait` below; `ts` outlives the call
                    // and is only read; the null sigmask is never
                    // dereferenced. The result is an event count or -1,
                    // so it fits an `i32`.
                    unsafe {
                        sys::syscall(
                            sys::SYS_EPOLL_PWAIT2,
                            self.ep.as_raw_fd() as std::os::raw::c_long,
                            events.buf.as_mut_ptr(),
                            events.buf.len() as std::os::raw::c_long,
                            &ts as *const sys::Timespec,
                            std::ptr::null::<u64>(), // sigmask
                            sys::KERNEL_SIGSET_SIZE,
                        ) as i32
                    }
                }
                // SAFETY: `buf` is a live, exclusively borrowed
                // allocation of `buf.len()` EpollEvent slots; the kernel
                // writes at most that many entries and `rc` reports how
                // many are valid.
                _ => unsafe {
                    sys::epoll_wait(
                        self.ep.as_raw_fd(),
                        events.buf.as_mut_ptr(),
                        events.buf.len() as i32,
                        timeout.map_or(-1, millis_ceil),
                    )
                },
            };
            if rc >= 0 {
                events.len = rc as usize;
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(sys::ENOSYS) {
                PWAIT2_MISSING.store(true, Ordering::Relaxed);
            } else if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            events.len = 0;
        }
    }
}

/// Set once the kernel has answered `epoll_pwait2` with `ENOSYS`
/// (Linux < 5.11): every later wait goes straight to `epoll_wait`.
static PWAIT2_MISSING: AtomicBool = AtomicBool::new(false);

/// Whether [`Poll::poll`] timeouts are still honoured to the
/// nanosecond: `false` once a wait in this process has found the
/// kernel without `epoll_pwait2` and fallen back to whole milliseconds
/// (for tests that bound sub-millisecond deadlines from above).
pub fn timeouts_are_exact() -> bool {
    !PWAIT2_MISSING.load(Ordering::Relaxed)
}

/// `d` as the `timespec` `epoll_pwait2` takes, exact to the nanosecond.
fn timespec_of(d: Duration) -> sys::Timespec {
    sys::Timespec {
        tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: d.subsec_nanos() as i64,
    }
}

/// `d` as an `epoll_wait` timeout: whole milliseconds, rounded up, so
/// only a zero wait polls without blocking.
fn millis_ceil(d: Duration) -> i32 {
    d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
}

/// Wakes a blocked [`Poll::poll`] from any thread — an `eventfd`
/// registered edge-triggered, so the counter never needs draining.
#[derive(Debug)]
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// Creates a waker delivering events under `token`.
    pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
        // SAFETY: plain FFI call taking no pointers.
        let raw = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `raw` was just returned open by eventfd, nothing else
        // owns it, and OwnedFd becomes its sole closer.
        let fd = unsafe { OwnedFd::from_raw_fd(raw) };
        registry.ctl(
            sys::EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            sys::EPOLLIN | sys::EPOLLET,
            token,
        )?;
        Ok(Waker { fd })
    }

    /// Wakes the poller. Idempotent while unconsumed; never blocks (a
    /// saturated eventfd counter means a wake is already pending).
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: the source pointer addresses `one`, a live stack u64,
        // and the length is exactly its 8 bytes; the fd is owned by
        // `self` and stays open across the call.
        let rc = unsafe {
            sys::write(
                self.fd.as_raw_fd(),
                &one as *const u64 as *const std::os::raw::c_void,
                8,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::WouldBlock {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Drains the eventfd counter so a level-triggered reader would stop
    /// seeing it; unnecessary with the edge-triggered registration but
    /// harmless, and useful in tests.
    pub fn clear(&self) {
        let mut buf = 0u64;
        // SAFETY: the destination pointer addresses `buf`, a live,
        // exclusively borrowed stack u64, and the length is exactly its
        // 8 bytes; an eventfd read writes either 8 bytes or nothing.
        unsafe {
            sys::read(
                self.fd.as_raw_fd(),
                &mut buf as *mut u64 as *mut std::os::raw::c_void,
                8,
            )
        };
    }
}

/// Non-blocking TCP wrappers registerable with a [`Poll`].
pub mod net {
    use super::event::Source;
    use std::io::{self, Read, Write};
    use std::net::SocketAddr;
    use std::os::fd::{AsRawFd, RawFd};

    /// Linux's `IOV_MAX`: the most iovec entries one `writev(2)` call
    /// accepts. [`TcpStream::write_vectored`] clamps longer batches to
    /// this bound (the clamped tail simply reads as a partial write the
    /// caller resumes), rather than surfacing `EINVAL`.
    pub const IOV_MAX: usize = 1024;

    /// A non-blocking TCP listener.
    #[derive(Debug)]
    pub struct TcpListener {
        inner: std::net::TcpListener,
    }

    impl TcpListener {
        /// Wraps a bound std listener, switching it to non-blocking mode.
        pub fn from_std(inner: std::net::TcpListener) -> TcpListener {
            inner
                .set_nonblocking(true)
                .expect("set listener non-blocking");
            TcpListener { inner }
        }

        /// Binds a non-blocking listener on `addr`.
        pub fn bind(addr: SocketAddr) -> io::Result<TcpListener> {
            Ok(Self::from_std(std::net::TcpListener::bind(addr)?))
        }

        /// Binds a non-blocking listener on `addr` with `SO_REUSEPORT`
        /// (and `SO_REUSEADDR`) set **before** the bind, so several
        /// listeners — typically one per reactor shard — can share one
        /// address and have the kernel spread incoming connections
        /// across their accept queues. IPv4 only (the reactor binds
        /// loopback aliases); an IPv6 address is an `InvalidInput`
        /// error.
        ///
        /// Extension over upstream mio (which exposes reuseport via
        /// `socket2`, unavailable offline); see `shims/README.md`.
        pub fn bind_reuseport(addr: SocketAddr, backlog: u32) -> io::Result<TcpListener> {
            use super::sys;
            use std::os::fd::{FromRawFd, OwnedFd};

            let SocketAddr::V4(v4) = addr else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "reuseport bind is IPv4-only in the mio shim",
                ));
            };
            // SAFETY: plain FFI call taking no pointers.
            let raw = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` was just returned open by socket(2) and
            // nothing else owns it. From here the fd is owned: any
            // error path closes it via OwnedFd's Drop.
            let fd = unsafe { OwnedFd::from_raw_fd(raw) };
            let one: i32 = 1;
            for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
                // SAFETY: the option pointer addresses `one`, a live
                // stack i32, with optlen exactly its size; `raw` stays
                // open (owned by `fd`) across the call.
                let rc = unsafe {
                    sys::setsockopt(
                        raw,
                        sys::SOL_SOCKET,
                        opt,
                        &one as *const i32 as *const std::os::raw::c_void,
                        std::mem::size_of::<i32>() as u32,
                    )
                };
                if rc < 0 {
                    return Err(io::Error::last_os_error());
                }
            }
            let sa = sys::SockaddrIn {
                sin_family: sys::AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a live, correctly sized SockaddrIn for
            // the duration of the call; `raw` stays open (owned by
            // `fd`).
            let rc = unsafe { sys::bind(raw, &sa, std::mem::size_of::<sys::SockaddrIn>() as u32) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: plain FFI call taking no pointers; `raw` stays
            // open (owned by `fd`).
            let rc = unsafe { sys::listen(raw, backlog.min(i32::MAX as u32) as i32) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self::from_std(std::net::TcpListener::from(fd)))
        }

        /// Accepts one pending connection; `WouldBlock` when none is
        /// queued. The accepted stream is already non-blocking.
        pub fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            let (s, addr) = self.inner.accept()?;
            Ok((TcpStream::from_std(s), addr))
        }

        /// The bound local address.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.inner.local_addr()
        }
    }

    impl Source for TcpListener {
        fn raw_fd(&self) -> RawFd {
            self.inner.as_raw_fd()
        }
    }

    /// A non-blocking TCP stream.
    #[derive(Debug)]
    pub struct TcpStream {
        inner: std::net::TcpStream,
    }

    impl TcpStream {
        /// Wraps a connected std stream, switching it to non-blocking mode.
        pub fn from_std(inner: std::net::TcpStream) -> TcpStream {
            inner
                .set_nonblocking(true)
                .expect("set stream non-blocking");
            TcpStream { inner }
        }

        /// Starts a **non-blocking** connect to `addr` (IPv4), like
        /// upstream mio: the socket is created non-blocking and
        /// `connect(2)`'s `EINPROGRESS` is success — the connection
        /// completes in the background and the socket becomes writable
        /// (or readable+error on failure). Callers that write before
        /// completion see `WouldBlock` and park the bytes for the
        /// writable event; a failed connect surfaces as an error from
        /// the next read/write.
        ///
        /// This MUST NOT block even transiently: an event loop dials
        /// peers whose accept queues it also drains — a blocking
        /// loopback connect against that loop's own full listener
        /// backlog would deadlock the loop against itself. (IPv6 falls
        /// back to a blocking std connect; nothing in-tree dials IPv6.)
        pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
            use super::sys;
            use std::os::fd::{FromRawFd, OwnedFd};

            let SocketAddr::V4(v4) = addr else {
                return Ok(Self::from_std(std::net::TcpStream::connect(addr)?));
            };
            // SAFETY: plain FFI call taking no pointers.
            let raw = unsafe {
                sys::socket(
                    sys::AF_INET,
                    sys::SOCK_STREAM | sys::SOCK_CLOEXEC | sys::SOCK_NONBLOCK,
                    0,
                )
            };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` was just returned open by socket(2),
            // nothing else owns it, and OwnedFd becomes its sole
            // closer (error paths below close via Drop).
            let fd = unsafe { OwnedFd::from_raw_fd(raw) };
            let sa = sys::SockaddrIn {
                sin_family: sys::AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a live, correctly sized SockaddrIn for
            // the duration of the call; `raw` stays open (owned by
            // `fd`).
            let rc =
                unsafe { sys::connect(raw, &sa, std::mem::size_of::<sys::SockaddrIn>() as u32) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                // EINPROGRESS is the normal non-blocking handshake;
                // EINTR means the kernel continues it in the background.
                let in_progress = matches!(
                    err.raw_os_error(),
                    Some(code) if code == sys::EINPROGRESS || code == sys::EINTR
                );
                if !in_progress {
                    return Err(err);
                }
            }
            // Already non-blocking via SOCK_NONBLOCK; from_std's extra
            // set_nonblocking is an idempotent no-op.
            Ok(Self::from_std(std::net::TcpStream::from(fd)))
        }

        /// Writes from several buffers in one `writev(2)` syscall —
        /// scatter-gather output, so a response header and a shared
        /// (refcounted) body slice go to the kernel in a single call
        /// with zero userspace copies.
        ///
        /// Semantics match a single `write`: the return value is how
        /// many bytes of the *logical concatenation* of `bufs` were
        /// accepted, which may end mid-buffer (a partial write) — the
        /// caller resumes from that offset. A full socket buffer
        /// surfaces as `WouldBlock` (EAGAIN), exactly like `write`.
        /// Batches longer than [`IOV_MAX`] are clamped (the kernel
        /// would reject them with `EINVAL`); the unclamped tail is
        /// indistinguishable from a partial write. Zero-length buffers
        /// are legal and contribute nothing.
        ///
        /// Extension over this shim's `Write` impl: upstream mio gets
        /// vectored writes from std's `Write::write_vectored`; the shim
        /// routes through the raw syscall binding so the whole data
        /// path stays visible offline (see `shims/README.md`).
        pub fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let cnt = bufs.len().min(IOV_MAX);
            if cnt == 0 {
                return Ok(0);
            }
            loop {
                // SAFETY: `IoSlice` is documented ABI-compatible with
                // `struct iovec` on Unix; the fd outlives the call.
                let rc = unsafe {
                    super::sys::writev(
                        self.inner.as_raw_fd(),
                        bufs.as_ptr() as *const super::sys::IoVec,
                        cnt as i32,
                    )
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }

        /// Sets `TCP_NODELAY`.
        pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
            self.inner.set_nodelay(nodelay)
        }

        /// The peer's address.
        pub fn peer_addr(&self) -> io::Result<SocketAddr> {
            self.inner.peer_addr()
        }

        /// The local address.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.inner.local_addr()
        }
    }

    impl Source for TcpStream {
        fn raw_fd(&self) -> RawFd {
            self.inner.as_raw_fd()
        }
    }

    impl Read for TcpStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl Write for TcpStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    const LISTENER: Token = Token(1);
    const CLIENT: Token = Token(2);
    const WAKER: Token = Token(3);

    #[test]
    fn timespec_keeps_every_nanosecond() {
        let ts = |s, ns| sys::Timespec {
            tv_sec: s,
            tv_nsec: ns,
        };
        assert_eq!(timespec_of(Duration::ZERO), ts(0, 0));
        assert_eq!(timespec_of(Duration::from_nanos(1)), ts(0, 1));
        assert_eq!(timespec_of(Duration::from_micros(30)), ts(0, 30_000));
        assert_eq!(timespec_of(Duration::from_micros(1_030)), ts(0, 1_030_000));
        assert_eq!(
            timespec_of(Duration::new(3, 999_999_999)),
            ts(3, 999_999_999)
        );
        assert_eq!(
            timespec_of(Duration::MAX).tv_sec,
            i64::MAX,
            "an absurd wait saturates instead of wrapping negative"
        );
    }

    #[test]
    fn fallback_millis_round_up_and_never_to_zero() {
        assert_eq!(millis_ceil(Duration::ZERO), 0);
        assert_eq!(millis_ceil(Duration::from_nanos(1)), 1);
        assert_eq!(millis_ceil(Duration::from_micros(30)), 1);
        assert_eq!(millis_ceil(Duration::from_millis(1)), 1);
        assert_eq!(millis_ceil(Duration::from_micros(1_030)), 2);
        assert_eq!(millis_ceil(Duration::from_millis(200)), 200);
        assert_eq!(millis_ceil(Duration::MAX), i32::MAX);
    }

    #[test]
    fn sub_millisecond_timeouts_are_honoured() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let start = Instant::now();
        for _ in 0..20 {
            poll.poll(&mut events, Some(Duration::from_micros(100)))
                .unwrap();
            assert!(events.is_empty());
        }
        let took = start.elapsed();
        assert!(
            took >= Duration::from_micros(2_000),
            "returned early: {took:?}"
        );
        if timeouts_are_exact() {
            assert!(
                took < Duration::from_millis(20),
                "20 waits of 100 us took {took:?}: rounded up to milliseconds"
            );
        }
    }

    #[test]
    fn poll_times_out() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let start = Instant::now();
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn readable_and_writable_events_flow() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);

        let mut listener = net::TcpListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        poll.registry()
            .register(&mut listener, LISTENER, Interest::READABLE)
            .unwrap();

        let mut client = net::TcpStream::connect(addr).unwrap();
        // The pending accept must surface as a readable listener event.
        let mut accepted = None;
        for _ in 0..50 {
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events
                .iter()
                .any(|e| e.token() == LISTENER && e.is_readable())
            {
                let (s, _) = listener.accept().unwrap();
                accepted = Some(s);
                break;
            }
        }
        let mut server_side = accepted.expect("accept event");

        // A fresh stream is immediately writable.
        poll.registry()
            .register(&mut client, CLIENT, Interest::READABLE | Interest::WRITABLE)
            .unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == CLIENT && e.is_writable()));

        // Reads on the non-blocking client would block while idle...
        let mut buf = [0u8; 16];
        assert_eq!(
            client.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );

        // ...until the server writes, which raises a readable event.
        server_side.write_all(b"ping").unwrap();
        poll.registry()
            .reregister(&mut client, CLIENT, Interest::READABLE)
            .unwrap();
        let mut got_readable = false;
        for _ in 0..50 {
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events
                .iter()
                .any(|e| e.token() == CLIENT && e.is_readable())
            {
                got_readable = true;
                break;
            }
        }
        assert!(got_readable);
        assert_eq!(client.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");

        // Peer close surfaces as read-closed/readable (EOF on read).
        drop(server_side);
        let mut got_eof = false;
        for _ in 0..50 {
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events
                .iter()
                .any(|e| e.token() == CLIENT && e.is_readable())
            {
                got_eof = true;
                break;
            }
        }
        assert!(got_eof);
        assert_eq!(client.read(&mut buf).unwrap(), 0);

        poll.registry().deregister(&mut client).unwrap();
    }

    /// The sharded-reactor deadlock regression: a loop dials peer
    /// listeners whose accept queues *it* drains, so `connect` must
    /// return immediately (EINPROGRESS) even when the target's backlog
    /// is full — the old blocking connect wedged the calling thread
    /// until someone accepted, which for a loop dialing its own
    /// listener was never.
    #[test]
    fn connect_does_not_block_on_a_full_backlog() {
        let l = net::TcpListener::bind_reuseport("127.0.0.1:0".parse().unwrap(), 1).unwrap();
        let addr = l.local_addr().unwrap();
        let start = Instant::now();
        // Dial far past the backlog from this single thread, accepting
        // nothing.
        let streams: Vec<_> = (0..16)
            .map(|_| net::TcpStream::connect(addr).expect("non-blocking dial"))
            .collect();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "connect blocked on a full backlog"
        );
        drop(streams);
    }

    #[test]
    fn reuseport_group_shares_one_address() {
        // First listener picks the port; the rest of the group binds the
        // same concrete address. Every connection lands in exactly one
        // member's accept queue.
        let l0 = net::TcpListener::bind_reuseport("127.0.0.1:0".parse().unwrap(), 128).unwrap();
        let addr = l0.local_addr().unwrap();
        let l1 = net::TcpListener::bind_reuseport(addr, 128).unwrap();
        assert_eq!(l1.local_addr().unwrap(), addr);

        // A plain (non-reuseport) bind of the same address must still
        // fail — the option gates the sharing.
        assert!(std::net::TcpListener::bind(addr).is_err());

        const N: usize = 32;
        let streams: Vec<_> = (0..N)
            .map(|_| std::net::TcpStream::connect(addr).unwrap())
            .collect();
        // Drain both queues; the kernel decides the split, the total is
        // what the contract guarantees.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut accepted = 0;
        while accepted < N && Instant::now() < deadline {
            let mut progress = false;
            for l in [&l0, &l1] {
                match l.accept() {
                    Ok(_) => {
                        accepted += 1;
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
            if !progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(accepted, N, "every connection reaches some group member");
        drop(streams);

        // IPv6 is out of scope: callers use the error to fall back.
        let v6 = "[::1]:0".parse().unwrap();
        assert!(net::TcpListener::bind_reuseport(v6, 128).is_err());
    }

    /// A connected loopback pair: shim sender (non-blocking), std
    /// receiver (blocking reads in the test body).
    fn loopback_pair() -> (net::TcpStream, std::net::TcpStream) {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let sender = net::TcpStream::connect(addr).unwrap();
        let (receiver, _) = l.accept().unwrap();
        (sender, receiver)
    }

    #[test]
    fn writev_concatenates_and_skips_empty_iovecs() {
        let (mut tx, mut rx) = loopback_pair();
        // Non-blocking connect may not have completed instantly; retry
        // the first write until the handshake lands.
        let bufs = [
            io::IoSlice::new(b""),
            io::IoSlice::new(b"HTTP/1.1 200 OK\r\n\r\n"),
            io::IoSlice::new(b""),
            io::IoSlice::new(b"body-bytes"),
        ];
        let deadline = Instant::now() + Duration::from_secs(5);
        let n = loop {
            match tx.write_vectored(&bufs) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "connect never completed");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("writev failed: {e}"),
            }
        };
        assert_eq!(n, 29, "zero-length iovecs contribute nothing");
        let mut got = vec![0u8; n];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"HTTP/1.1 200 OK\r\n\r\nbody-bytes");
    }

    /// Filling the socket until EAGAIN forces partial writes that end
    /// mid-iovec; the acknowledged byte count must describe an exact
    /// prefix of the logical concatenation — nothing dropped, nothing
    /// duplicated, nothing reordered.
    #[test]
    fn writev_partial_write_lands_mid_iovec_without_corruption() {
        let (mut tx, mut rx) = loopback_pair();
        // A long repeating pattern (coprime with power-of-two buffer
        // sizes) so any drop/dup/reorder misaligns the comparison.
        // Chunk length a multiple of the pattern period, so the cyclic
        // stream reads as a continuous `i % 251` sequence.
        let chunk: Vec<u8> = (0..251 * 130).map(|i| (i % 251) as u8).collect();
        let mut acked = 0usize;
        let mut received = Vec::new();
        let mut saw_mid_iovec_partial = false;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "no mid-iovec partial observed");
            // Slide the iovec boundaries with the acked position so the
            // logical stream is a continuous repetition of the pattern
            // regardless of where each call's acceptance stopped.
            let pos = acked % chunk.len();
            let bufs = [
                io::IoSlice::new(&chunk[pos..]),
                io::IoSlice::new(&chunk[..pos]),
                io::IoSlice::new(&chunk),
            ];
            let total: usize = bufs.iter().map(|b| b.len()).sum();
            match tx.write_vectored(&bufs) {
                Ok(0) => panic!("writev returned 0 on an open socket"),
                Ok(n) => {
                    // Partial acceptance that is not an iovec-boundary
                    // multiple means the kernel stopped mid-buffer.
                    if n < total && n != chunk.len() - pos && n != 2 * chunk.len() - pos {
                        saw_mid_iovec_partial = true;
                    }
                    acked += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if saw_mid_iovec_partial {
                        break;
                    }
                    // Drain a little (keeping every byte for the final
                    // comparison) and keep filling until a partial
                    // write lands mid-iovec.
                    let mut sink = vec![0u8; 64 * 1024];
                    let drained = rx.read(&mut sink).unwrap();
                    received.extend_from_slice(&sink[..drained]);
                }
                Err(e) => panic!("writev failed: {e}"),
            }
        }
        drop(tx);
        // Everything acknowledged (and nothing more) arrives, in order.
        rx.read_to_end(&mut received).unwrap();
        assert_eq!(
            received.len(),
            acked,
            "received exactly the acknowledged bytes"
        );
        for (i, &b) in received.iter().enumerate() {
            assert_eq!(b, (i % 251) as u8, "stream corrupt at offset {i}");
        }
    }

    #[test]
    fn writev_clamps_batches_to_iov_max() {
        let (mut tx, mut rx) = loopback_pair();
        // 2500 one-byte iovecs: the kernel takes at most IOV_MAX per
        // call, so the first call must accept exactly IOV_MAX bytes
        // (loopback buffers dwarf 1024 bytes; nothing else can shorten
        // it) and the rest behaves as a resumable partial write.
        let seq: Vec<u8> = (0..2500u32).map(|i| (i % 241) as u8).collect();
        let slices: Vec<io::IoSlice> = seq.chunks(1).map(io::IoSlice::new).collect();
        assert!(slices.len() > net::IOV_MAX);
        let deadline = Instant::now() + Duration::from_secs(5);
        let n = loop {
            match tx.write_vectored(&slices) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "connect never completed");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("writev failed: {e}"),
            }
        };
        assert_eq!(n, net::IOV_MAX, "batch clamped at IOV_MAX entries");
        // Resume past the clamp: the caller-side contract is the same
        // as any partial write.
        let rest: Vec<io::IoSlice> = seq[n..].chunks(1).map(io::IoSlice::new).collect();
        let m = tx.write_vectored(&rest).unwrap();
        assert_eq!(m, rest.len().min(net::IOV_MAX));
        let mut got = vec![0u8; n + m];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(&got[..], &seq[..n + m], "clamped writes stay in order");
    }

    #[test]
    fn writev_empty_batch_is_a_no_op() {
        let (mut tx, _rx) = loopback_pair();
        assert_eq!(tx.write_vectored(&[]).unwrap(), 0);
    }

    #[test]
    fn waker_wakes_a_blocked_poll() {
        let mut poll = Poll::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(poll.registry(), WAKER).unwrap());

        let w = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake().unwrap();
        });

        let mut events = Events::with_capacity(8);
        let start = Instant::now();
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waker never fired"
        );
        assert!(events.iter().any(|e| e.token() == WAKER && e.is_readable()));
        t.join().unwrap();

        // Edge-triggered: an unconsumed wake does not storm the poller.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // A second wake after the edge re-arms delivers again.
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == WAKER));
        waker.clear();
    }
}
