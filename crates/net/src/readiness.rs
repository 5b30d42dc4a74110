//! Readiness backends for the network front door's event loop.
//!
//! The polled scan in [`crate::server`] is portable but pays one
//! `read()` syscall per connection per pass even when every socket is
//! idle — with hundreds of idle connections the scan itself becomes
//! the ingest bottleneck. This module provides the alternative: a
//! Linux x86_64 **epoll** backend built directly on raw syscalls
//! (`core::arch::asm!`), because the vendored dependency set contains
//! no libc. One blocked `epoll_wait` replaces the O(connections) scan,
//! and an [`EventFd`] registered alongside the sockets lets the
//! runtime's completion queue wake the same loop — no sleeping, no
//! reaper threads.
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
//! same API exists but every constructor fails with
//! [`SysErrorKind::Unsupported`], and callers (the server's `Auto`
//! mode) fall back to the polled scan. The polled scan remains the
//! bit-identity oracle: `crates/net/tests` assert both backends
//! produce byte-identical responses.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::fmt;
use std::io;

/// Whether the epoll backend is available on this target. When
/// `false`, [`Epoll::new`] and [`EventFd::new`] fail with
/// [`SysErrorKind::Unsupported`] and callers must use the polled scan.
pub const SUPPORTED: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

/// A raw file descriptor as the kernel sees it. Mirrors
/// `std::os::fd::RawFd` without committing the crate's public API to a
/// unix-only std module on non-unix targets.
pub type RawFd = i32;

/// What a registered descriptor should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    read: bool,
    write: bool,
}

impl Interest {
    /// Readable-only interest (`EPOLLIN`).
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Writable-only interest (`EPOLLOUT`).
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Readable-and-writable interest (`EPOLLIN | EPOLLOUT`).
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
    /// No interest: the descriptor stays registered (keeping its
    /// token) but only reports error/hangup conditions. Used to pause
    /// reading a backpressured connection without the ADD/DEL churn of
    /// full deregistration.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };

    /// Composes an interest from its parts (e.g. "read unless paused,
    /// write while the output buffer is non-empty").
    pub fn new(read: bool, write: bool) -> Interest {
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

/// One readiness event out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable (or a peer hangup, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition (`EPOLLERR`/`EPOLLHUP`); the owner
    /// should read to observe the error and retire the descriptor.
    pub error: bool,
}

/// The classified cause of a failed syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysErrorKind {
    /// `EINTR`: a signal interrupted the call; retry it.
    Interrupted,
    /// `EBADF`: the descriptor is not open — a lifecycle bug in the
    /// caller, never retryable.
    BadDescriptor,
    /// `EAGAIN`/`EWOULDBLOCK`: a non-blocking op found nothing to do.
    WouldBlock,
    /// The backend does not exist on this target (stub build) or the
    /// kernel lacks the syscall (`ENOSYS`).
    Unsupported,
    /// Any other errno; inspect [`SysError::errno`].
    Other,
}

/// A failed syscall, carrying the raw errno and its classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SysError {
    errno: i32,
}

impl SysError {
    /// Wraps a raw errno value (positive, e.g. `4` for `EINTR`).
    pub fn from_errno(errno: i32) -> SysError {
        SysError { errno }
    }

    /// The error for targets without the epoll backend (`ENOSYS`).
    pub fn unsupported() -> SysError {
        SysError { errno: sys::ENOSYS }
    }

    /// The raw errno.
    pub fn errno(self) -> i32 {
        self.errno
    }

    /// Classifies the errno into the cases callers branch on.
    pub fn kind(self) -> SysErrorKind {
        match self.errno {
            sys::EINTR => SysErrorKind::Interrupted,
            sys::EBADF => SysErrorKind::BadDescriptor,
            sys::EAGAIN => SysErrorKind::WouldBlock,
            sys::ENOSYS => SysErrorKind::Unsupported,
            _ => SysErrorKind::Other,
        }
    }
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "syscall failed: {:?} (errno {})",
            self.kind(),
            self.errno
        )
    }
}

impl std::error::Error for SysError {}

impl From<SysError> for io::Error {
    fn from(e: SysError) -> io::Error {
        io::Error::from_raw_os_error(e.errno)
    }
}

/// Interprets a raw syscall return: `[-4095, -1]` is `-errno`, any
/// other value is success. This is the whole kernel error ABI on
/// x86_64 — there is no `errno` variable without libc.
fn check(ret: i64) -> Result<u64, SysError> {
    if (-4095..0).contains(&ret) {
        Err(SysError::from_errno(-ret as i32))
    } else {
        Ok(ret as u64)
    }
}

/// Calls `f` until it returns anything other than `EINTR`. Blocking
/// syscalls (`epoll_wait`) are restarted transparently; genuine errors
/// and successes pass through untouched.
pub fn retry_eintr<T>(mut f: impl FnMut() -> Result<T, SysError>) -> Result<T, SysError> {
    loop {
        match f() {
            Err(e) if e.kind() == SysErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// An epoll instance: register descriptors with a `u64` token, then
/// [`Epoll::wait`] blocks until at least one is ready. Level-triggered
/// (the default epoll mode): a ready descriptor keeps reporting until
/// the condition is consumed, so the event loop never needs to
/// exhaustively drain a socket per event. The instance is closed on
/// drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates an epoll instance (`epoll_create1(EPOLL_CLOEXEC)`).
    pub fn new() -> Result<Epoll, SysError> {
        let fd = sys::epoll_create1(sys::EPOLL_CLOEXEC)?;
        Ok(Epoll { fd: fd as RawFd })
    }

    /// Starts watching `fd` with `interest`; readiness events for it
    /// carry `token` (`EPOLL_CTL_ADD`).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> Result<(), SysError> {
        sys::epoll_ctl(self.fd, sys::EPOLL_CTL_ADD, fd, interest.events(), token)
    }

    /// Changes the interest set of an already-registered `fd`
    /// (`EPOLL_CTL_MOD`).
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> Result<(), SysError> {
        sys::epoll_ctl(self.fd, sys::EPOLL_CTL_MOD, fd, interest.events(), token)
    }

    /// Stops watching `fd` (`EPOLL_CTL_DEL`). Safe to call for a
    /// descriptor the kernel already dropped (closing an fd removes it
    /// from every epoll set): `EBADF`/`ENOENT` are not errors here.
    pub fn deregister(&self, fd: RawFd) -> Result<(), SysError> {
        match sys::epoll_ctl(self.fd, sys::EPOLL_CTL_DEL, fd, 0, 0) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == SysErrorKind::BadDescriptor || e.errno() == sys::ENOENT => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Blocks until a registered descriptor is ready or `timeout_ms`
    /// elapses (`-1` blocks forever, `0` polls), then fills `events`.
    /// Returns the number of events. `EINTR` is retried internally.
    pub fn wait(&self, events: &mut Events, timeout_ms: i32) -> Result<usize, SysError> {
        let n = retry_eintr(|| sys::epoll_wait(self.fd, &mut events.buf, timeout_ms))?;
        events.len = n;
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = sys::close(self.fd);
    }
}

/// A reusable buffer of kernel epoll events plus the decoded view
/// [`Events::iter`] exposes.
#[derive(Debug)]
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent::default(); capacity.max(1)],
            len: 0,
        }
    }

    /// The events produced by the last [`Epoll::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out of the packed struct by value; references into
            // packed fields would be unaligned.
            let events = { raw.events };
            Event {
                token: { raw.data },
                readable: events & (sys::EPOLLIN | sys::EPOLLHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                error: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            }
        })
    }
}

/// An eventfd wakeup channel: any thread calls [`EventFd::wake`], and
/// the descriptor becomes readable to the epoll (or polled) loop
/// watching it. The kernel object is a saturating 64-bit counter —
/// multiple wakes before a drain coalesce into one readable event,
/// which is exactly the amortization the batched completion pump
/// wants. Created non-blocking; closed on drop.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
    /// Calls of [`EventFd::wake`] on this descriptor, for tests that
    /// pin who wakes the event loop.
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicU64,
}

impl EventFd {
    /// Creates the counter at zero
    /// (`eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`).
    pub fn new() -> Result<EventFd, SysError> {
        let fd = sys::eventfd2(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK)?;
        Ok(EventFd {
            fd: fd as RawFd,
            #[cfg(test)]
            wakes: Default::default(),
        })
    }

    /// How many times [`EventFd::wake`] was called on this descriptor.
    #[cfg(test)]
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The descriptor, for registration with an [`Epoll`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking any waiter. A full counter
    /// (`EAGAIN`) is fine — the waiter is already pending a wake.
    pub fn wake(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let _ = sys::write_u64(self.fd, 1);
    }

    /// Resets the counter to zero so the descriptor stops reading as
    /// ready. `EAGAIN` (already zero) is fine: wakes may coalesce.
    pub fn drain(&self) {
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
    pub const EBADF: i32 = 9;
    pub const EAGAIN: i32 = 11;
    pub const ENOENT: i32 = 2;
    pub const ENOSYS: i32 = 38;

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
/// API, with every entry point failing `Unsupported` (constants kept
/// so the portable wrapper types compile unchanged).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::SysError;

    pub const EINTR: i32 = 4;
    pub const EBADF: i32 = 9;
    pub const EAGAIN: i32 = 11;
    pub const ENOENT: i32 = 2;
    pub const ENOSYS: i32 = 38;

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

    pub fn epoll_create1(_flags: i32) -> Result<u64, SysError> {
        Err(SysError::unsupported())
    }

    pub fn epoll_ctl(
        _epfd: i32,
        _op: i32,
        _fd: i32,
        _events: u32,
        _data: u64,
    ) -> Result<(), SysError> {
        Err(SysError::unsupported())
    }

    pub fn epoll_wait(
        _epfd: i32,
        _buf: &mut [EpollEvent],
        _timeout_ms: i32,
    ) -> Result<usize, SysError> {
        Err(SysError::unsupported())
    }

    pub fn eventfd2(_initval: u32, _flags: i32) -> Result<u64, SysError> {
        Err(SysError::unsupported())
    }

    pub fn write_u64(_fd: i32, _val: u64) -> Result<(), SysError> {
        Err(SysError::unsupported())
    }

    pub fn read_u64(_fd: i32) -> Result<u64, SysError> {
        Err(SysError::unsupported())
    }

    pub fn close(_fd: i32) -> Result<(), SysError> {
        Err(SysError::unsupported())
    }
}

/// The raw descriptor of a TCP socket, for registration with an
/// [`Epoll`]. On targets without the backend this returns `-1`, which
/// is never used because [`Epoll::new`] fails first.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn raw_fd_of(sock: &std::net::TcpStream) -> RawFd {
    std::os::fd::AsRawFd::as_raw_fd(sock)
}

/// Stub for targets without the epoll backend (see the real impl).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn raw_fd_of(_sock: &std::net::TcpStream) -> RawFd {
    -1
}

/// Same as [`raw_fd_of`] but for a listener socket.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn raw_fd_of_listener(sock: &std::net::TcpListener) -> RawFd {
    std::os::fd::AsRawFd::as_raw_fd(sock)
}

/// Stub for targets without the epoll backend (see the real impl).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn raw_fd_of_listener(_sock: &std::net::TcpListener) -> RawFd {
    -1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn check_maps_the_kernel_error_window() {
        assert_eq!(check(0), Ok(0));
        assert_eq!(check(7), Ok(7));
        // The top of the error window is -4095; just above it is a
        // valid success value (e.g. a mmap address).
        assert_eq!(check(-4096), Ok(-4096i64 as u64));
        assert_eq!(
            check(-4).expect_err("must fail").kind(),
            SysErrorKind::Interrupted
        );
        assert_eq!(
            check(-9).expect_err("must fail").kind(),
            SysErrorKind::BadDescriptor
        );
        assert_eq!(
            check(-11).expect_err("must fail").kind(),
            SysErrorKind::WouldBlock
        );
        assert_eq!(
            check(-38).expect_err("must fail").kind(),
            SysErrorKind::Unsupported
        );
        assert_eq!(
            check(-95).expect_err("must fail").kind(),
            SysErrorKind::Other
        );
        assert_eq!(check(-95).expect_err("must fail").errno(), 95);
    }

    #[test]
    fn retry_eintr_restarts_only_on_eintr() {
        let calls = Cell::new(0);
        let out: Result<i32, SysError> = retry_eintr(|| {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(SysError::from_errno(4)) // EINTR, EINTR, then Ok
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls.get(), 3);

        let calls = Cell::new(0);
        let out: Result<i32, SysError> = retry_eintr(|| {
            calls.set(calls.get() + 1);
            Err(SysError::from_errno(9)) // EBADF must NOT retry
        });
        assert_eq!(
            out.expect_err("must fail").kind(),
            SysErrorKind::BadDescriptor
        );
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn sys_error_converts_to_io_error() {
        let io: std::io::Error = SysError::from_errno(9).into();
        assert_eq!(io.raw_os_error(), Some(9));
        let io: std::io::Error = SysError::unsupported().into();
        assert_eq!(io.kind(), std::io::ErrorKind::Unsupported);
    }

    #[test]
    fn unsupported_targets_fail_closed() {
        if SUPPORTED {
            return;
        }
        assert_eq!(
            Epoll::new().expect_err("must fail").kind(),
            SysErrorKind::Unsupported
        );
        assert_eq!(
            EventFd::new().expect_err("must fail").kind(),
            SysErrorKind::Unsupported
        );
    }

    #[test]
    fn live_register_of_closed_fd_is_typed_ebadf() {
        if !SUPPORTED {
            return;
        }
        let ep = Epoll::new().expect("epoll_create1");
        // An fd nothing in this process holds open: a fresh eventfd
        // dropped immediately (its Drop closes it).
        let dead = {
            let efd = EventFd::new().expect("eventfd");
            efd.raw_fd()
        };
        let err = ep.register(dead, 1, Interest::READ).expect_err("must fail");
        assert_eq!(err.kind(), SysErrorKind::BadDescriptor);
        // Deregistering a dead fd is explicitly tolerated.
        assert!(ep.deregister(dead).is_ok());
    }

    #[test]
    fn live_eventfd_wakes_epoll_and_coalesces() {
        if !SUPPORTED {
            return;
        }
        let ep = Epoll::new().expect("epoll_create1");
        let efd = EventFd::new().expect("eventfd");
        ep.register(efd.raw_fd(), 99, Interest::READ)
            .expect("register");
        let mut events = Events::with_capacity(8);

        // Not yet woken: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        // Three wakes coalesce into one readable event.
        efd.wake();
        efd.wake();
        efd.wake();
        assert_eq!(ep.wait(&mut events, 1000).expect("wait"), 1);
        let ev = events.iter().next().expect("one event");
        assert_eq!(ev.token, 99);
        assert!(ev.readable);
        assert!(!ev.writable);

        // Drained: level-triggered readiness clears.
        efd.drain();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn live_write_interest_reports_writable() {
        if !SUPPORTED {
            return;
        }
        use std::io::Read;
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (_server_end, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).expect("nonblocking");

        let ep = Epoll::new().expect("epoll_create1");
        let fd = raw_fd_of(&client);
        ep.register(fd, 7, Interest::READ_WRITE).expect("register");
        let mut events = Events::with_capacity(8);
        // A fresh socket with an empty send buffer is immediately
        // writable but not readable.
        assert!(ep.wait(&mut events, 1000).expect("wait") >= 1);
        let ev = events.iter().find(|e| e.token == 7).expect("event");
        assert!(ev.writable);
        assert!(!ev.readable);
        // Narrow to read interest: nothing to read, so a zero-timeout
        // wait is empty.
        ep.reregister(fd, 7, Interest::READ).expect("reregister");
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
        // Sanity: the socket really has nothing buffered.
        let mut probe = [0u8; 1];
        let mut c = &client;
        assert!(c.read(&mut probe).is_err());
    }
}
