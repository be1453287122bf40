//! A switch that makes the journal's durability calls free, for the traced
//! run's no-sync twin.
//!
//! `journal.sync_share` compares the serve submit loop with its journal on
//! disk against the same loop where `sync_data` does nothing, as it does on
//! tmpfs.  The benchmark may write only inside its checkout, so instead of
//! moving the twin's journal to tmpfs this binary defines `fsync` and
//! `fdatasync` itself.  The linker binds the standard library's calls to
//! these definitions ahead of the C library's (the `eatmydata` technique).
//! With the switch off they make the real system call; with it on they
//! return success at once.  Every call is counted, which also proves the
//! definitions are the ones in use.

use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static SKIP: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

#[cfg(target_arch = "x86_64")]
const SYS_FSYNC: c_long = 74;
#[cfg(target_arch = "x86_64")]
const SYS_FDATASYNC: c_long = 75;
#[cfg(target_arch = "aarch64")]
const SYS_FSYNC: c_long = 82;
#[cfg(target_arch = "aarch64")]
const SYS_FDATASYNC: c_long = 83;

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
}

fn sync_call(number: c_long, fd: c_int) -> c_int {
    CALLS.fetch_add(1, Ordering::Relaxed);
    if SKIP.load(Ordering::Relaxed) {
        return 0;
    }
    // SAFETY: fsync and fdatasync take one file descriptor argument and
    // touch no memory of this process; an invalid descriptor makes the
    // kernel return EBADF, which the C wrapper reports through errno.
    unsafe { syscall(number, c_long::from(fd)) as c_int }
}

/// `fsync(2)`, skippable.
#[no_mangle]
pub extern "C" fn fsync(fd: c_int) -> c_int {
    sync_call(SYS_FSYNC, fd)
}

/// `fdatasync(2)`, skippable.
#[no_mangle]
pub extern "C" fn fdatasync(fd: c_int) -> c_int {
    sync_call(SYS_FDATASYNC, fd)
}

/// Sync calls made by this process so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Runs `f` with every sync call skipped.
pub fn without_sync<T>(f: impl FnOnce() -> T) -> T {
    SKIP.store(true, Ordering::Relaxed);
    let out = f();
    SKIP.store(false, Ordering::Relaxed);
    out
}
