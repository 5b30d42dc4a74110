//! How the network front door's event loop learns what is ready.
//!
//! The event loop in [`crate::server`] has one body. Each iteration it
//! makes one wait on this module's poller, which fills a list of ready
//! tokens in one of two ways, chosen by the platform when the server
//! binds:
//!
//! - **epoll** (Linux x86_64), built directly on raw syscalls
//!   (`core::arch::asm!`) because the vendored dependency set contains
//!   no libc. One blocked `epoll_wait` covers the listener, every
//!   connection and an eventfd that other threads write to wake the
//!   loop, so idle connections cost nothing. The eventfd is read only
//!   when a wait reports it, and its token never reaches the loop.
//! - **the polled scan** (everywhere else, and where the kernel refuses
//!   the epoll set — fd limits, seccomp). It reports every registered
//!   token as ready for what it is registered for, so the loop pays one
//!   `read()` per connection per pass even when every socket is idle;
//!   with hundreds of idle connections the scan itself becomes the
//!   ingest bottleneck. After a pass that made no progress it sleeps on
//!   an adaptive backoff (50 µs doubling to a 2 ms cap, never past the
//!   wait's timeout), which also paces write retries after
//!   `WouldBlock`. Nothing wakes it early.
//!
//! Both apply backpressure the same way: a connection registered with
//! no read interest is not reported readable.
//!
//! ## Syscall ABI contract (Linux x86_64)
//!
//! Every raw syscall in this module goes through the private
//! `sys::syscall4` shim, which encodes the Linux x86_64 syscall
//! convention:
//!
//! - syscall number in `rax`; arguments in `rdi`, `rsi`, `rdx`, `r10`
//!   (the 5th/6th args `r8`/`r9` are unused here and not passed);
//! - the `syscall` instruction enters the kernel; the kernel clobbers
//!   `rcx` (saved return RIP) and `r11` (saved RFLAGS) and preserves
//!   all other registers; RFLAGS is restored from `r11` on `sysret`,
//!   so flags are preserved across the call;
//! - the result comes back in `rax`: values in `[-4095, -1]` are
//!   `-errno`, anything else is success.
//!
//! The per-syscall contracts (argument meaning, memory the kernel
//! reads or writes) are documented on each wrapper in the `sys`
//! module.
//!
//! ## Portability
//!
//! [`SUPPORTED`] is `true` only on Linux x86_64. Everywhere else the
//! syscall layer is a stub whose every call fails with `ENOSYS`, so the
//! poller falls back to the scan. The scan remains the byte-identity
//! oracle: the in-crate tests of [`crate::server`] drive the one loop
//! body on both and assert byte-identical responses.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Whether the epoll backend is available on this target. When
/// `false`, the event loop always runs on the polled scan.
pub const SUPPORTED: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

/// A raw file descriptor as the kernel sees it. Mirrors
/// `std::os::fd::RawFd` without depending on a unix-only std module on
/// non-unix targets.
pub(crate) type RawFd = i32;

/// The token the listener is reported under. Connection tokens are
/// `u32` ids, so the top two `u64` values never collide with one.
pub(crate) const LISTENER: u64 = u64::MAX;
/// The wake eventfd's token; the poller consumes it.
const WAKER: u64 = u64::MAX - 1;

/// Kernel events buffered per `epoll_wait`.
const EVENTS_CAP: usize = 256;

/// The event loop's source of readiness: epoll where the platform has
/// it, the polled scan otherwise (see the module docs).
pub(crate) struct Poller(Kind);

enum Kind {
    Epoll {
        /// The epoll instance, level-triggered: a ready descriptor keeps
        /// reporting until the condition is consumed. Closed on drop.
        epfd: RawFd,
        efd: Arc<EventFd>,
        /// Filled by `epoll_wait`.
        buf: Vec<sys::EpollEvent>,
    },
    Scan {
        /// Every registered token and what it is watched for.
        watched: HashMap<u64, Interest>,
        /// Consecutive waits after a pass that made no progress.
        idle: u32,
    },
}

impl Poller {
    /// The poller this platform gets, watching `listener` under
    /// [`LISTENER`]: epoll with a wake eventfd where [`SUPPORTED`]
    /// holds and the kernel grants the descriptors (fd limits and
    /// seccomp can refuse), the polled scan otherwise.
    pub(crate) fn for_platform(listener: &TcpListener) -> Poller {
        let epoll = || -> Result<Poller, SysError> {
            let efd = Arc::new(EventFd::new()?);
            let epfd = sys::epoll_create1(sys::EPOLL_CLOEXEC)? as RawFd;
            let buf = vec![sys::EpollEvent::default(); EVENTS_CAP];
            let wake_fd = efd.fd;
            // From here a failure drops the poller, which closes `epfd`.
            let mut poller = Poller(Kind::Epoll { epfd, efd, buf });
            poller.register(raw_fd_of_listener(listener), LISTENER, Interest::READ)?;
            poller.register(wake_fd, WAKER, Interest::READ)?;
            Ok(poller)
        };
        epoll().unwrap_or_else(|_| Poller::scan())
    }

    /// The polled scan, watching the listener's token for reads.
    pub(crate) fn scan() -> Poller {
        Poller(Kind::Scan {
            watched: HashMap::from([(LISTENER, Interest::READ)]),
            idle: 0,
        })
    }

    /// Starts watching `fd` with `interest`, reported under `token`.
    pub(crate) fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> Result<(), SysError> {
        self.watch(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes what an already-registered `fd` is watched for.
    pub(crate) fn reregister(
        &mut self,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> Result<(), SysError> {
        self.watch(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn watch(
        &mut self,
        op: i32,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> Result<(), SysError> {
        match &mut self.0 {
            Kind::Epoll { epfd, .. } => sys::epoll_ctl(*epfd, op, fd, interest.events(), token),
            Kind::Scan { watched, .. } => {
                watched.insert(token, interest);
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Errors are ignored: closing a descriptor
    /// removes it from the epoll set anyway.
    pub(crate) fn deregister(&mut self, fd: RawFd, token: u64) {
        match &mut self.0 {
            Kind::Epoll { epfd, .. } => {
                let _ = sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
            }
            Kind::Scan { watched, .. } => {
                watched.remove(&token);
            }
        }
    }

    /// Learns what is ready, waiting at most `timeout`, and fills
    /// `ready` with it (cleared first). `progressed` says whether the
    /// loop's previous pass did any work: the scan sleeps only when it
    /// did not. Returns whether the call may have blocked, which makes
    /// the loop's next shard pass a wake-up.
    pub(crate) fn wait(
        &mut self,
        ready: &mut Vec<Event>,
        timeout: Duration,
        progressed: bool,
    ) -> bool {
        ready.clear();
        match &mut self.0 {
            Kind::Epoll { epfd, efd, buf } => {
                let ms = timeout_ms(timeout);
                // An error after EINTR retries (a lifecycle bug, never
                // retryable) reads as an empty wait.
                let n = retry_eintr(|| {
                    #[cfg(test)]
                    efd.waits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    sys::epoll_wait(*epfd, buf, ms)
                })
                .unwrap_or(0);
                for raw in &buf[..n] {
                    // Copied out of the packed struct by value.
                    let (bits, token) = (raw.events, raw.data);
                    if token == WAKER {
                        // Drained before the loop's completion pump: a
                        // wake posted after the pump empties the queue
                        // keeps the level-triggered eventfd readable,
                        // so the next wait reports it again and no
                        // completion is stranded.
                        efd.drain();
                        continue;
                    }
                    ready.push(Event {
                        token,
                        readable: bits & (sys::EPOLLIN | sys::EPOLLHUP) != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
                ms != 0
            }
            Kind::Scan { watched, idle } => {
                let mut slept = false;
                if progressed {
                    *idle = 0;
                } else {
                    *idle = idle.saturating_add(1);
                    let nap = Duration::from_micros((50u64 << (*idle).min(6)).min(2_000));
                    let nap = nap.min(timeout);
                    if !nap.is_zero() {
                        thread::sleep(nap);
                        slept = true;
                    }
                }
                ready.extend(watched.iter().filter(|(_, i)| i.read || i.write).map(
                    |(&token, i)| Event {
                        token,
                        readable: i.read,
                        writable: i.write,
                        error: false,
                    },
                ));
                slept
            }
        }
    }

    /// The handle other threads use to end a wait early.
    pub(crate) fn waker(&self) -> Waker {
        match &self.0 {
            Kind::Epoll { efd, .. } => Waker(Some(Arc::clone(efd))),
            Kind::Scan { .. } => Waker(None),
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        if let Kind::Epoll { epfd, .. } = self.0 {
            let _ = sys::close(epfd);
        }
    }
}

/// A wait's `timeout` as `epoll_wait` takes it: whole milliseconds,
/// rounded up so the wait never ends before the deadline it serves.
pub(crate) fn timeout_ms(timeout: Duration) -> i32 {
    i32::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
}

/// Ends a [`Poller`]'s wait from another thread: writes the eventfd on
/// epoll, does nothing on the scan (whose sleep is at most 2 ms).
#[derive(Clone)]
pub(crate) struct Waker(Option<Arc<EventFd>>);

impl Waker {
    /// Wakes the poller's current or next wait. Wakes coalesce.
    pub(crate) fn wake(&self) {
        if let Some(efd) = &self.0 {
            efd.wake();
        }
    }

    /// Which way the poller learns readiness: `"epoll"` or `"polled"`.
    pub(crate) fn label(&self) -> &'static str {
        match self.0 {
            Some(_) => "epoll",
            None => "polled",
        }
    }

    /// Wakes sent and eventfd reads made so far (zero on the scan).
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::SeqCst;
        self.0.as_ref().map_or((0, 0), |efd| {
            (efd.wakes.load(SeqCst), efd.reads.load(SeqCst))
        })
    }

    /// `epoll_wait` calls the poller made so far (zero on the scan).
    #[cfg(test)]
    pub(crate) fn waits(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |efd| efd.waits.load(std::sync::atomic::Ordering::SeqCst))
    }
}

/// What a registered descriptor should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    read: bool,
    write: bool,
}

impl Interest {
    /// Readable-only interest (`EPOLLIN`).
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };

    /// Composes an interest from its parts (e.g. "read unless paused,
    /// write while the output buffer is non-empty"). With neither, the
    /// descriptor stays registered under its token but reports only
    /// error and hangup conditions (epoll) or nothing (the scan).
    pub(crate) fn new(read: bool, write: bool) -> Interest {
        Interest { read, write }
    }

    fn events(self) -> u32 {
        let mut ev = 0;
        if self.read {
            ev |= sys::EPOLLIN;
        }
        if self.write {
            ev |= sys::EPOLLOUT;
        }
        ev
    }
}

/// One ready descriptor out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// The token the descriptor was registered with.
    pub(crate) token: u64,
    /// Readable (or a peer hangup, which reads as EOF).
    pub(crate) readable: bool,
    /// Writable.
    pub(crate) writable: bool,
    /// Error or hangup condition (`EPOLLERR`/`EPOLLHUP`); the owner
    /// should read to observe the error and retire the descriptor.
    pub(crate) error: bool,
}

/// A failed syscall: the raw errno (positive, e.g. `4` for `EINTR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SysError {
    errno: i32,
}

/// Interprets a raw syscall return: `[-4095, -1]` is `-errno`, any
/// other value is success. This is the whole kernel error ABI on
/// x86_64 — there is no `errno` variable without libc.
fn check(ret: i64) -> Result<u64, SysError> {
    if (-4095..0).contains(&ret) {
        Err(SysError { errno: -ret as i32 })
    } else {
        Ok(ret as u64)
    }
}

/// Calls `f` until it returns anything other than `EINTR`. Blocking
/// syscalls (`epoll_wait`) are restarted transparently; genuine errors
/// and successes pass through untouched.
fn retry_eintr<T>(mut f: impl FnMut() -> Result<T, SysError>) -> Result<T, SysError> {
    loop {
        match f() {
            Err(e) if e.errno == sys::EINTR => continue,
            other => return other,
        }
    }
}

/// An eventfd wakeup channel: any thread calls [`EventFd::wake`], and
/// the descriptor becomes readable to the epoll watching it. The kernel
/// object is a saturating 64-bit counter — multiple wakes before a
/// drain coalesce into one readable event, which is exactly the
/// amortization the batched completion pump wants. Created
/// non-blocking; closed on drop.
#[derive(Debug)]
struct EventFd {
    fd: RawFd,
    /// Calls of [`EventFd::wake`], for tests that pin who wakes the
    /// event loop.
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicU64,
    /// Calls of [`EventFd::drain`], for tests that pin when the loop
    /// reads the counter.
    #[cfg(test)]
    reads: std::sync::atomic::AtomicU64,
    /// `epoll_wait` calls of the poller this eventfd wakes, for tests
    /// that pin the syscalls a request costs.
    #[cfg(test)]
    waits: std::sync::atomic::AtomicU64,
}

impl EventFd {
    /// Creates the counter at zero
    /// (`eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`).
    fn new() -> Result<EventFd, SysError> {
        let fd = sys::eventfd2(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK)?;
        Ok(EventFd {
            fd: fd as RawFd,
            #[cfg(test)]
            wakes: Default::default(),
            #[cfg(test)]
            reads: Default::default(),
            #[cfg(test)]
            waits: Default::default(),
        })
    }

    /// Adds 1 to the counter, waking any waiter. A full counter
    /// (`EAGAIN`) is fine — the waiter is already pending a wake.
    fn wake(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let _ = sys::write_u64(self.fd, 1);
    }

    /// Resets the counter to zero so the descriptor stops reading as
    /// ready. `EAGAIN` (already zero) is fine: wakes may coalesce.
    fn drain(&self) {
        #[cfg(test)]
        self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let _ = sys::read_u64(self.fd);
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        let _ = sys::close(self.fd);
    }
}

/// The real Linux x86_64 syscall layer.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::{check, SysError};

    // Errno values (asm-generic/errno-base.h; identical on x86_64).
    pub const EINTR: i32 = 4;

    // Syscall numbers (arch/x86/entry/syscalls/syscall_64.tbl).
    const SYS_READ: i64 = 0;
    const SYS_WRITE: i64 = 1;
    const SYS_CLOSE: i64 = 3;
    const SYS_EPOLL_WAIT: i64 = 232;
    const SYS_EPOLL_CTL: i64 = 233;
    const SYS_EVENTFD2: i64 = 290;
    const SYS_EPOLL_CREATE1: i64 = 291;

    // epoll_ctl ops and event bits (uapi/linux/eventpoll.h).
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;

    // eventfd2 flags (uapi/linux/eventfd.h).
    pub const EFD_CLOEXEC: i32 = 0x8_0000;
    pub const EFD_NONBLOCK: i32 = 0x800;

    /// The kernel's `struct epoll_event`. On x86_64 the kernel
    /// declares it `__attribute__((packed))` (12 bytes, `data`
    /// unaligned) — `repr(C, packed)` matches that layout exactly;
    /// fields must be copied out by value, never referenced.
    #[derive(Debug, Clone, Copy, Default)]
    #[repr(C, packed)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// One raw syscall with up to four arguments, per the ABI contract
    /// in the module docs: number in `rax`, args in
    /// `rdi`/`rsi`/`rdx`/`r10`, result in `rax`, `rcx`/`r11`
    /// kernel-clobbered, flags preserved across `sysret`, no stack use.
    ///
    /// # Safety
    ///
    /// The caller must uphold the invoked syscall's own contract: any
    /// pointer argument must be valid for the access the kernel
    /// performs (e.g. `epoll_wait`'s buffer writable for `maxevents`
    /// entries) for the duration of the call.
    unsafe fn syscall4(nr: i64, a1: i64, a2: i64, a3: i64, a4: i64) -> i64 {
        let ret: i64;
        // SAFETY: the `syscall` instruction with the register
        // assignments above is exactly the Linux x86_64 ABI; rcx/r11
        // are declared clobbered, no Rust memory is touched except
        // through the kernel per the caller's contract, and the stack
        // is not used (`nostack`).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, preserves_flags)
            );
        }
        ret
    }

    /// `epoll_create1(flags)` → epoll fd. No pointers; always safe to
    /// issue.
    pub fn epoll_create1(flags: i32) -> Result<u64, SysError> {
        // SAFETY: no pointer arguments; the kernel only allocates an
        // fd in this process's table.
        check(unsafe { syscall4(SYS_EPOLL_CREATE1, flags as i64, 0, 0, 0) })
    }

    /// `epoll_ctl(epfd, op, fd, &event)`. The kernel *reads*
    /// `struct epoll_event` for ADD/MOD and ignores the pointer for
    /// DEL (since Linux 2.6.9 a null pointer is allowed for DEL; a
    /// valid zeroed one is passed anyway for older-kernel safety).
    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> Result<(), SysError> {
        let ev = EpollEvent { events, data };
        // SAFETY: `&ev` is a live, initialized epoll_event for the
        // whole call; the kernel only reads it.
        check(unsafe {
            syscall4(
                SYS_EPOLL_CTL,
                epfd as i64,
                op as i64,
                fd as i64,
                &ev as *const EpollEvent as i64,
            )
        })
        .map(|_| ())
    }

    /// `epoll_wait(epfd, buf.as_mut_ptr(), buf.len(), timeout_ms)` →
    /// number of events. The kernel *writes* up to `buf.len()`
    /// `epoll_event` entries into the buffer.
    pub fn epoll_wait(
        epfd: i32,
        buf: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> Result<usize, SysError> {
        // SAFETY: `buf` is a live &mut slice, so its pointer is valid
        // for writes of `buf.len()` entries for the whole (blocking)
        // call; `EpollEvent` is plain old data, so any bytes the
        // kernel writes are valid values.
        let n = check(unsafe {
            syscall4(
                SYS_EPOLL_WAIT,
                epfd as i64,
                buf.as_mut_ptr() as i64,
                buf.len() as i64,
                timeout_ms as i64,
            )
        })?;
        Ok(n as usize)
    }

    /// `eventfd2(initval, flags)` → eventfd. No pointers.
    pub fn eventfd2(initval: u32, flags: i32) -> Result<u64, SysError> {
        // SAFETY: no pointer arguments.
        check(unsafe { syscall4(SYS_EVENTFD2, initval as i64, flags as i64, 0, 0) })
    }

    /// `write(fd, &val, 8)`: adds `val` to an eventfd counter. The
    /// kernel *reads* 8 bytes.
    pub fn write_u64(fd: i32, val: u64) -> Result<(), SysError> {
        let buf = val.to_ne_bytes();
        // SAFETY: `buf` is 8 live bytes on our stack; the kernel only
        // reads them.
        check(unsafe { syscall4(SYS_WRITE, fd as i64, buf.as_ptr() as i64, 8, 0) }).map(|_| ())
    }

    /// `read(fd, &mut val, 8)`: reads-and-resets an eventfd counter.
    /// The kernel *writes* 8 bytes.
    pub fn read_u64(fd: i32) -> Result<u64, SysError> {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 writable bytes on our stack, valid for
        // the whole call.
        check(unsafe { syscall4(SYS_READ, fd as i64, buf.as_mut_ptr() as i64, 8, 0) })?;
        Ok(u64::from_ne_bytes(buf))
    }

    /// `close(fd)`. No pointers. Only called from `Drop` impls that
    /// own the descriptor.
    pub fn close(fd: i32) -> Result<(), SysError> {
        // SAFETY: no pointer arguments; closing an owned fd.
        check(unsafe { syscall4(SYS_CLOSE, fd as i64, 0, 0, 0) }).map(|_| ())
    }
}

/// Stub syscall layer for targets without the epoll backend: the same
/// API, with every entry point failing `ENOSYS` (constants kept so the
/// portable wrapper types compile unchanged).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::SysError;

    pub const EINTR: i32 = 4;
    const ENOSYS: i32 = 38;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;
    pub const EFD_CLOEXEC: i32 = 0x8_0000;
    pub const EFD_NONBLOCK: i32 = 0x800;

    /// Layout-compatible placeholder; never passed to a kernel here.
    #[derive(Debug, Clone, Copy, Default)]
    #[repr(C, packed)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    fn unsupported() -> SysError {
        SysError { errno: ENOSYS }
    }

    pub fn epoll_create1(_flags: i32) -> Result<u64, SysError> {
        Err(unsupported())
    }

    pub fn epoll_ctl(
        _epfd: i32,
        _op: i32,
        _fd: i32,
        _events: u32,
        _data: u64,
    ) -> Result<(), SysError> {
        Err(unsupported())
    }

    pub fn epoll_wait(
        _epfd: i32,
        _buf: &mut [EpollEvent],
        _timeout_ms: i32,
    ) -> Result<usize, SysError> {
        Err(unsupported())
    }

    pub fn eventfd2(_initval: u32, _flags: i32) -> Result<u64, SysError> {
        Err(unsupported())
    }

    pub fn write_u64(_fd: i32, _val: u64) -> Result<(), SysError> {
        Err(unsupported())
    }

    pub fn read_u64(_fd: i32) -> Result<u64, SysError> {
        Err(unsupported())
    }

    pub fn close(_fd: i32) -> Result<(), SysError> {
        Err(unsupported())
    }
}

/// The raw descriptor of a TCP socket, for registration with a
/// [`Poller`]. On targets without epoll this returns `-1`, which the
/// scan never reads.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn raw_fd_of(sock: &std::net::TcpStream) -> RawFd {
    std::os::fd::AsRawFd::as_raw_fd(sock)
}

/// Stub for targets without the epoll backend (see the real impl).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn raw_fd_of(_sock: &std::net::TcpStream) -> RawFd {
    -1
}

/// Same as [`raw_fd_of`] but for a listener socket.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn raw_fd_of_listener(sock: &std::net::TcpListener) -> RawFd {
    std::os::fd::AsRawFd::as_raw_fd(sock)
}

/// Stub for targets without the epoll backend (see the real impl).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn raw_fd_of_listener(_sock: &std::net::TcpListener) -> RawFd {
    -1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn errno(ret: i64) -> i32 {
        check(ret).expect_err("must fail").errno
    }

    #[test]
    fn check_maps_the_kernel_error_window() {
        assert_eq!(check(0), Ok(0));
        assert_eq!(check(7), Ok(7));
        // The top of the error window is -4095; just above it is a
        // valid success value (e.g. a mmap address).
        assert_eq!(check(-4096), Ok(-4096i64 as u64));
        assert_eq!(errno(-1), 1);
        assert_eq!(errno(-4), 4);
        assert_eq!(errno(-95), 95);
        assert_eq!(errno(-4095), 4095);
    }

    #[test]
    fn retry_eintr_restarts_only_on_eintr() {
        let calls = Cell::new(0);
        let out: Result<i32, SysError> = retry_eintr(|| {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(SysError { errno: 4 }) // EINTR, EINTR, then Ok
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls.get(), 3);

        let calls = Cell::new(0);
        let out: Result<i32, SysError> = retry_eintr(|| {
            calls.set(calls.get() + 1);
            Err(SysError { errno: 9 }) // EBADF must NOT retry
        });
        assert_eq!(out.expect_err("must fail").errno, 9);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn the_scan_reports_each_token_by_its_interest() {
        let mut scan = Poller::scan();
        for token in 1..=4 {
            scan.register(-1, token, Interest::READ).expect("register");
        }
        scan.reregister(-1, 2, Interest::new(false, true))
            .expect("write interest");
        scan.reregister(-1, 3, Interest::new(false, false))
            .expect("pause");
        scan.deregister(-1, 4);
        let ev = |token, readable, writable| Event {
            token,
            readable,
            writable,
            error: false,
        };
        let expected = vec![
            ev(1, true, false),
            ev(2, false, true),
            ev(LISTENER, true, false),
        ];
        let mut ready = Vec::new();
        assert!(!scan.wait(&mut ready, Duration::ZERO, true));
        ready.sort_by_key(|e| e.token);
        assert_eq!(ready, expected);
        // After a pass that made progress the scan does not sleep, however
        // long the wait may be.
        assert!(!scan.wait(&mut ready, Duration::from_secs(60), true));
        ready.sort_by_key(|e| e.token);
        assert_eq!(ready, expected);
    }

    #[test]
    fn unsupported_targets_fail_closed() {
        if SUPPORTED {
            return;
        }
        assert_eq!(EventFd::new().expect_err("must fail").errno, 38);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        assert_eq!(Poller::for_platform(&listener).waker().label(), "polled");
    }

    /// An epoll poller watching a fresh loopback listener.
    fn live_epoll() -> (TcpListener, Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let poller = Poller::for_platform(&listener);
        assert_eq!(poller.waker().label(), "epoll");
        (listener, poller)
    }

    #[test]
    fn live_register_of_closed_fd_is_typed_ebadf() {
        if !SUPPORTED {
            return;
        }
        let (_listener, mut poller) = live_epoll();
        // An fd number no thread of this process can hold: no fd table
        // reaches `i32::MAX` (the kernel's ceiling on `fs.nr_open` is
        // `i32::MAX` rounded down to a multiple of 64). The number of a
        // just-closed descriptor would not do: a test running in
        // parallel can be handed it before the register.
        let dead = i32::MAX;
        let err = poller
            .register(dead, 1, Interest::READ)
            .expect_err("must fail");
        assert_eq!(err.errno, 9); // EBADF
                                  // Deregistering a dead fd is tolerated.
        poller.deregister(dead, 1);
    }

    #[test]
    fn live_eventfd_wakes_epoll_and_coalesces() {
        if !SUPPORTED {
            return;
        }
        let (_listener, mut poller) = live_epoll();
        let waker = poller.waker();
        let mut ready = Vec::new();

        // Not yet woken: a zero-timeout wait sees nothing and reads
        // nothing.
        assert!(!poller.wait(&mut ready, Duration::ZERO, false));
        assert!(ready.is_empty());
        assert_eq!(waker.counts(), (0, 0));

        // Three wakes coalesce into one read, and the waker's token
        // never reaches the caller. (Unwoken, this wait would block
        // for the full minute.)
        waker.wake();
        waker.wake();
        waker.wake();
        assert!(poller.wait(&mut ready, Duration::from_secs(60), false));
        assert!(ready.is_empty());
        assert_eq!(waker.counts(), (3, 1));

        // Drained: level-triggered readiness clears, and a wait that
        // does not report the waker does not read it.
        poller.wait(&mut ready, Duration::ZERO, false);
        assert_eq!(waker.counts(), (3, 1));
    }

    #[test]
    fn live_write_interest_reports_writable() {
        if !SUPPORTED {
            return;
        }
        use std::io::Read;
        use std::net::TcpStream;
        let (listener, mut poller) = live_epoll();
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (_server_end, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).expect("nonblocking");

        let fd = raw_fd_of(&client);
        poller
            .register(fd, 7, Interest::new(true, true))
            .expect("register");
        let mut ready = Vec::new();
        // A fresh socket with an empty send buffer is immediately
        // writable but not readable.
        poller.wait(&mut ready, Duration::from_secs(1), false);
        let ev = ready.iter().find(|e| e.token == 7).expect("event");
        assert!(ev.writable);
        assert!(!ev.readable);
        // Narrow to read interest: nothing to read, so a zero-timeout
        // wait is empty.
        poller
            .reregister(fd, 7, Interest::READ)
            .expect("reregister");
        poller.wait(&mut ready, Duration::ZERO, false);
        assert!(ready.is_empty());
        // Sanity: the socket really has nothing buffered.
        let mut probe = [0u8; 1];
        let mut c = &client;
        assert!(c.read(&mut probe).is_err());
    }
}
