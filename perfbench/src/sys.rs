//! The two facts about the process and the disk the benchmark reports:
//! peak resident memory and the filesystem type under the journal.
//!
//! Both come from system calls (`getrusage`, `statfs`) rather than from
//! files under `/proc`, so the benchmark reads nothing outside its checkout.

use std::ffi::CString;
use std::os::raw::{c_char, c_int, c_long};
use std::os::unix::ffi::OsStrExt;
use std::path::Path;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux: two timevals, then fourteen `long` counters of
/// which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn statfs(path: *const c_char, buf: *mut StatfsBuf) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Room for `struct statfs`, whose first field is the filesystem magic (a
/// `long`).  The structure is 120 bytes on 64-bit Linux; the buffer is
/// larger.
#[repr(C)]
struct StatfsBuf {
    words: [i64; 32],
}

/// Peak resident set size of this process, in MiB.
///
/// The kernel keeps this mark across `execve`, so a process exec'd straight
/// from a larger one reports at least the larger one's size; `run.sh`
/// therefore starts the benchmark as a child of its own small shell.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // layout, and RUSAGE_SELF is a valid selector.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // ru_maxrss is in KiB on Linux.
    usage.maxrss as f64 / 1024.0
}

/// Filesystem magic numbers the report names (see `statfs(2)`).
const KNOWN: [(i64, &str); 9] = [
    (0xEF53, "ext4"),
    (0x5846_5342, "xfs"),
    (0x9123_683E, "btrfs"),
    (0x794C_7630, "overlayfs"),
    (0x2FC1_2FC1, "zfs"),
    (0x6969, "nfs"),
    (0x6573_5546, "fuse"),
    (0x0102_1994, "tmpfs"),
    (0x8584_58F6, "ramfs"),
];

/// Filesystem type of `path`, by name when known, else by magic number.
pub fn filesystem_type(path: &Path) -> std::io::Result<String> {
    let c_path = CString::new(path.as_os_str().as_bytes())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut buf = StatfsBuf { words: [0; 32] };
    // SAFETY: `c_path` is NUL-terminated and outlives the call; `buf` is
    // writable and larger than the kernel's `struct statfs`.
    let rc = unsafe { statfs(c_path.as_ptr(), &mut buf) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let magic = buf.words[0];
    Ok(KNOWN
        .iter()
        .find(|(m, _)| *m == magic)
        .map_or_else(|| format!("magic-{magic:#x}"), |(_, name)| name.to_string()))
}

/// `true` for filesystems held in memory, where `sync_data` costs nothing.
pub fn is_memory_backed(fs_type: &str) -> bool {
    fs_type == "tmpfs" || fs_type == "ramfs"
}
