//! Pinning and host hygiene: the core split between the cluster and the
//! load generator, process resource counters, and the fixed integer
//! spin that tells a moved host from a moved program.
//!
//! Unpinned, the same closed loop read 72k–134k req/s run to run on the
//! 2-core build host; with the cluster confined to one core and the
//! generator to the other it read 102.9k–104.7k. Everything here exists
//! to make that second kind of number the only kind the benchmark
//! prints.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("phttp-load reads Linux counters through 64-bit libc layouts");

/// Bits in the affinity masks exchanged with the kernel (1024 CPUs, the
/// size of glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` through `ru_nsignals`, twelve longs nobody reads.
    skipped: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread (and every thread it spawns afterwards)
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed and the kernel only reads it; pid 0 names the calling
    // thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The benchmark's core split: the cluster's threads get the first
/// `max(1, n/2)` allowed CPUs, the load generator the rest. With one
/// CPU nothing is pinned and every record says so.
#[derive(Debug, Clone)]
pub struct CoreSplit {
    /// CPUs the cluster runs on (empty when unpinned).
    pub server: Vec<usize>,
    /// CPUs the load generator runs on (empty when unpinned).
    pub generator: Vec<usize>,
}

impl CoreSplit {
    /// Splits `cpus` (see [`allowed_cpus`]).
    pub fn of(cpus: &[usize]) -> CoreSplit {
        if cpus.len() < 2 {
            return CoreSplit {
                server: Vec::new(),
                generator: Vec::new(),
            };
        }
        let (server, generator) = cpus.split_at((cpus.len() / 2).max(1));
        CoreSplit {
            server: server.to_vec(),
            generator: generator.to_vec(),
        }
    }

    /// Whether the two sides run on disjoint cores.
    pub fn pinned(&self) -> bool {
        !self.server.is_empty()
    }

    /// Pins the calling thread to the cluster's cores. Call on the
    /// thread that is about to call `Cluster::start`: the threads the
    /// cluster spawns inherit the mask.
    pub fn enter_server(&self) {
        if self.pinned() {
            pin_current_thread(&self.server);
        }
    }

    /// Pins the calling thread to the generator's cores.
    pub fn enter_generator(&self) {
        if self.pinned() {
            pin_current_thread(&self.generator);
        }
    }
}

/// Process-wide resource counters (all threads, live and joined).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    /// User CPU time, microseconds.
    pub user_us: u64,
    /// System CPU time, microseconds.
    pub sys_us: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// `RUSAGE_SELF`: the whole process.
const RUSAGE_SELF: i32 = 0;
/// `RUSAGE_THREAD` (Linux): the calling thread alone.
const RUSAGE_THREAD: i32 = 1;

impl Rusage {
    /// The process's counters now.
    pub fn now() -> Rusage {
        Rusage::of(RUSAGE_SELF)
    }

    /// The calling thread's counters now: CPU time that, unlike a wall
    /// clock, does not advance while the thread sleeps.
    pub fn thread_now() -> Rusage {
        Rusage::of(RUSAGE_THREAD)
    }

    fn of(who: i32) -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the
        // layout the 64-bit Linux ABI defines, and `who` is one of the
        // two selectors above.
        let rc = unsafe { getrusage(who, &mut raw) };
        if rc != 0 {
            return Rusage::default();
        }
        let us = |t: Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
        Rusage {
            user_us: us(raw.utime),
            sys_us: us(raw.stime),
            ctx_switches: (raw.nvcsw.max(0) + raw.nivcsw.max(0)) as u64,
        }
    }

    /// Total CPU time, microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

/// Peak resident set of this process, KiB: `VmHWM` of
/// `/proc/self/status`. Not `ru_maxrss`, which after an `exec` still
/// remembers the peak of the image that forked — under `cargo run` it
/// read cargo's 26 MiB, not the benchmark's 13.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Iterations of the calibration spin: about 50 ms on the build host.
const CALIB_ITERS: u64 = 30_000_000;

/// Times a fixed integer spin, nanoseconds: the fastest of three, since
/// the first spin of a fresh process ran 18 % slow here (cold clock).
/// The work never changes, so a different reading means the host —
/// clock, neighbours, thermal state — changed, not the program under
/// test.
pub fn calib_ns() -> u64 {
    let spin = || {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..CALIB_ITERS {
            x = (x ^ i)
                .wrapping_mul(6_364_136_223_846_793_005)
                .rotate_left(17);
        }
        std::hint::black_box(x);
        t0.elapsed().as_nanos() as u64
    };
    (0..3).map(|_| spin()).min().expect("three spins")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_halves_and_degrades() {
        let s = CoreSplit::of(&[0, 1]);
        assert_eq!(
            (s.server.as_slice(), s.generator.as_slice()),
            (&[0][..], &[1][..])
        );
        let s = CoreSplit::of(&[2, 3, 4, 5, 6]);
        assert_eq!(s.server, vec![2, 3]);
        assert_eq!(s.generator, vec![4, 5, 6]);
        assert!(!CoreSplit::of(&[0]).pinned());
        assert!(!CoreSplit::of(&[]).pinned());
    }

    #[test]
    fn counters_read_and_move() {
        assert!(!allowed_cpus().is_empty());
        let a = Rusage::now();
        assert!(peak_rss_kib() > 0);
        let ns = calib_ns();
        assert!(ns > 0);
        let b = Rusage::now();
        assert!(b.cpu_us() >= a.cpu_us());
        // A sleeping thread burns wall time, not CPU time.
        let t0 = Rusage::thread_now().cpu_us();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(Rusage::thread_now().cpu_us() - t0 < 20_000);
    }

    #[test]
    fn pin_round_trips() {
        let before = allowed_cpus();
        let one = [before[0]];
        assert!(pin_current_thread(&one));
        assert_eq!(allowed_cpus(), one);
        assert!(pin_current_thread(&before));
        assert!(!pin_current_thread(&[]));
    }
}
