//! The host descriptor stamped into every result, and the sizing rules
//! that keep the benchmark from using more threads than the host has.

use crate::json::quote;
use std::time::{Duration, Instant};

/// What the benchmark ran on and how many threads it allowed itself.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism` (1 when it cannot be read).
    pub nproc: usize,
    /// Executor threads used: half the processors, at least one and at
    /// most four, unless another count within `nproc` was requested.
    pub threads: usize,
    /// Client connections to the daemon; the daemon gets as many workers.
    /// `connections + workers ≤ nproc` whenever `nproc ≥ 2`.
    pub connections: usize,
    /// Requests that asked for more than the host has, as
    /// `"<what>: <asked> -> <given>"`.
    pub clamped: Vec<String>,
    /// Throughput of two spinning threads over one: 2.0 on two free
    /// cores, 1.0 when they share one.
    pub parallel_speedup_2t: f64,
    /// L2 size per core, as sysfs prints it (`"2048K"`), when readable.
    pub l2: Option<String>,
    /// L3 size, as sysfs prints it, when readable.
    pub l3: Option<String>,
}

/// Threads and connections for a host with `nproc` processors.  A request
/// above the limit is clamped and the clamp is reported, never honoured.
///
/// Both defaults use half the processors.  A shared host does not back
/// every virtual processor with a core of its own all the time — the
/// builder's gave two spinning threads anywhere from 1.0 to 2.0 times the
/// throughput of one, minutes apart — so a measurement that needs all of
/// them at once times the host's scheduler, not the executor.
pub fn size(
    nproc: usize,
    want_threads: Option<usize>,
    want_connections: Option<usize>,
) -> (usize, usize, Vec<String>) {
    let mut clamped = Vec::new();
    let mut pick = |what: &str, asked: Option<usize>, default: usize, limit: usize| match asked {
        None => default,
        Some(n) if (1..=limit).contains(&n) => n,
        Some(n) => {
            let given = n.clamp(1, limit);
            clamped.push(format!("{what}: {n} -> {given}"));
            given
        }
    };
    let pairs = (nproc / 2).max(1);
    let threads = pick("threads", want_threads, pairs.min(4), nproc);
    // Each connection keeps one client thread and one daemon worker busy.
    let connections = pick("connections", want_connections, pairs, pairs);
    (threads, connections, clamped)
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = std::hint::black_box(x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    x
}

/// Time `threads` threads each spinning through `iters` iterations.
fn spin_wall(threads: usize, iters: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| std::hint::black_box(spin(iters)));
        }
    });
    start.elapsed()
}

/// Keep `threads` threads busy for `length`, so the host settles into the
/// state the coming measurement will hold it in.
///
/// The builder's host backs its two virtual processors with one physical
/// core until both have been busy for about a second, and takes the
/// second core away again after a second or two of single-threaded work
/// (README "Load sizing").  Set-up is single-threaded, so without this a
/// multi-threaded window starts on one core and gains the second part-way
/// through, and a single-threaded one starts with whatever the previous
/// process left behind.
pub fn condition(threads: usize, length: Duration) {
    let deadline = Instant::now() + length;
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(move || {
                while Instant::now() < deadline {
                    std::hint::black_box(spin(100_000));
                }
            });
        }
    });
}

/// Words in a processor mask: room for 1024 processors.
const MASK_WORDS: usize = 16;

/// `sched_getaffinity` / `sched_setaffinity` on the calling thread.
/// `std` has no safe operation for either.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(number: isize, mask: &mut [u64; MASK_WORDS]) -> isize {
    let ret: isize;
    // SAFETY: numbers 203 and 204 are sched_setaffinity and
    // sched_getaffinity(pid, len, mask).  With pid 0 they act on the
    // calling thread; the kernel reads or writes at most `len` = 128 bytes
    // at `mask`, which is exactly the array borrowed mutably for the
    // length of the call.  `syscall` clobbers rcx and r11, declared below,
    // and uses no stack.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") number => ret,
            in("rdi") 0usize,
            in("rsi") MASK_WORDS * 8,
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_number: isize, _mask: &mut [u64; MASK_WORDS]) -> isize {
    -1
}

/// While alive, the thread that made it — and every thread started
/// meanwhile — runs on a subset of the processors; dropping it restores
/// the creating thread's original set.
#[derive(Debug)]
pub struct Pinned {
    saved: [u64; MASK_WORDS],
}

impl Drop for Pinned {
    fn drop(&mut self) {
        affinity_syscall(203, &mut self.saved);
    }
}

/// Keep the first `n` processors of `mask` and clear the rest.
fn first_set_bits(mask: &[u64; MASK_WORDS], n: usize) -> [u64; MASK_WORDS] {
    let mut out = [0u64; MASK_WORDS];
    let mut left = n;
    for (w, &word) in mask.iter().enumerate() {
        for bit in 0..64 {
            if left > 0 && word & (1 << bit) != 0 {
                out[w] |= 1 << bit;
                left -= 1;
            }
        }
    }
    out
}

/// Restrict the calling thread, and threads it starts from now on, to
/// the first `n` processors it is allowed.  `None` where the platform
/// gives no way to (the measurement then runs unpinned).
///
/// Threads that take turns — a client waiting on the daemon, the daemon
/// waiting on the client — wake each other across processors unless they
/// share one, and on the builder's nested-virtualised host a cross-
/// processor wake-up costs 50 µs or more and varies fivefold with the
/// host's mood (README "Load sizing").
pub fn pin_to_first(n: usize) -> Option<Pinned> {
    let mut saved = [0u64; MASK_WORDS];
    if affinity_syscall(204, &mut saved) <= 0 {
        return None;
    }
    let mut wanted = first_set_bits(&saved, n.max(1));
    (affinity_syscall(203, &mut wanted) == 0).then_some(Pinned { saved })
}

/// How much more work two threads finish than one in the same time.
/// Best of three, so one preempted trial does not hide a second core.
pub fn parallel_speedup_2t() -> f64 {
    const ITERS: u64 = 20_000_000;
    (0..3)
        .map(|_| {
            let one = spin_wall(1, ITERS).as_secs_f64();
            let two = spin_wall(2, ITERS).as_secs_f64();
            2.0 * one / two
        })
        .fold(0.0, f64::max)
}

fn cache_size(index: usize) -> Option<String> {
    let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = std::fs::read_to_string(format!("{base}/level")).ok()?;
    let size = std::fs::read_to_string(format!("{base}/size")).ok()?;
    Some(format!("L{}={}", level.trim(), size.trim()))
}

impl Host {
    /// Probe this host and size the benchmark for it.
    pub fn probe(want_threads: Option<usize>, want_connections: Option<usize>) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (threads, connections, clamped) = size(nproc, want_threads, want_connections);
        let level = |l: &str| {
            (0..8)
                .filter_map(cache_size)
                .find_map(|s| s.strip_prefix(l).map(str::to_string))
        };
        Host {
            nproc,
            threads,
            connections,
            clamped,
            parallel_speedup_2t: parallel_speedup_2t(),
            l2: level("L2="),
            l3: level("L3="),
        }
    }

    /// Threads of the short probes that ask what all processors at once
    /// would give (`runtime.scaling_eff`, the simulator's tiles):
    /// `min(nproc, 4)`, the count the measured windows stay below.
    pub fn wide(&self) -> usize {
        self.nproc.min(4)
    }

    /// True when the spin probe saw a second core: below 1.5× the host
    /// cannot resolve a parallel scaling claim.
    pub fn resolves_scaling(&self) -> bool {
        self.parallel_speedup_2t >= 1.5
    }

    /// One line for the human-readable report.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} threads={} connections={} workers={} parallel_speedup_2t={:.2} l2={} l3={}{}",
            self.nproc,
            self.threads,
            self.connections,
            self.connections,
            self.parallel_speedup_2t,
            self.l2.as_deref().unwrap_or("unknown"),
            self.l3.as_deref().unwrap_or("unknown"),
            if self.clamped.is_empty() {
                String::new()
            } else {
                format!(" clamped=[{}]", self.clamped.join(", "))
            }
        )
    }

    /// The descriptor as a JSON object.
    pub fn json(&self) -> String {
        let opt = |s: &Option<String>| s.as_deref().map_or("null".to_string(), quote);
        let clamps: Vec<String> = self.clamped.iter().map(|c| quote(c)).collect();
        format!(
            "{{\"nproc\": {}, \"threads\": {}, \"connections\": {}, \"workers\": {}, \
             \"parallel_speedup_2t\": {}, \"l2\": {}, \"l3\": {}, \"clamped\": [{}]}}",
            self.nproc,
            self.threads,
            self.connections,
            self.connections,
            self.parallel_speedup_2t,
            opt(&self.l2),
            opt(&self.l3),
            clamps.join(", ")
        )
    }
}

/// CPU time this process (all its threads) has used so far, in seconds:
/// `utime + stime` of `/proc/self/stat`, which Linux counts in ticks of
/// 1/100 s on every platform Rust's `std` supports.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of this process in MB (`VmHWM`); `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_sizing_rules() {
        assert_eq!(size(1, None, None), (1, 1, vec![]));
        assert_eq!(size(2, None, None), (1, 1, vec![]));
        assert_eq!(size(4, None, None), (2, 2, vec![]));
        assert_eq!(size(8, None, None), (4, 4, vec![]));
        assert_eq!(size(64, None, None), (4, 32, vec![]));
    }

    #[test]
    fn requests_above_the_host_are_clamped_and_reported() {
        let (threads, connections, clamped) = size(2, Some(8), Some(4));
        assert_eq!((threads, connections), (2, 1));
        assert_eq!(clamped, vec!["threads: 8 -> 2", "connections: 4 -> 1"]);
        // A request within the limit is honoured silently.
        assert_eq!(size(8, Some(2), Some(3)), (2, 3, vec![]));
        assert_eq!(size(4, Some(0), None).0, 1);
    }

    #[test]
    fn first_set_bits_follows_the_allowed_set() {
        let mut allowed = [0u64; MASK_WORDS];
        allowed[0] = 0b1111_0000;
        allowed[1] = 0b1;
        assert_eq!(first_set_bits(&allowed, 1)[0], 0b0001_0000);
        assert_eq!(first_set_bits(&allowed, 3)[0], 0b0111_0000);
        let five = first_set_bits(&allowed, 5);
        assert_eq!((five[0], five[1]), (0b1111_0000, 0b1));
        assert_eq!(first_set_bits(&allowed, 99), allowed);
    }

    #[test]
    fn pinning_narrows_and_dropping_restores() {
        let before = std::thread::available_parallelism().map_or(1, |n| n.get());
        if let Some(pin) = pin_to_first(1) {
            // `available_parallelism` reads the thread's affinity mask.
            assert_eq!(
                std::thread::available_parallelism().map_or(0, |n| n.get()),
                1
            );
            let inherited =
                std::thread::spawn(|| std::thread::available_parallelism().map_or(0, |n| n.get()));
            assert_eq!(inherited.join().expect("thread"), 1);
            drop(pin);
        }
        assert_eq!(
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            before
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
