//! Process resource usage: CPU time and context switches from
//! `getrusage(RUSAGE_SELF)`, which sums every thread of the process — including threads
//! that have already exited, such as the vendored rayon's per-region scoped workers —
//! and the peak resident set from `/proc/self/status`.

/// A snapshot of the process's CPU time and context switches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// The usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// The process's usage so far.
pub fn usage() -> Usage {
    let mut raw = Rusage::default();
    // SAFETY: `raw` is a properly aligned, writable `struct rusage`, which is all
    // `getrusage` requires; it only fails for an invalid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&raw.utime),
        sys_s: secs(&raw.stime),
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

/// The process's peak resident set in bytes (`VmHWM`).  Not `ru_maxrss`: Linux carries
/// that across `execve`, so under a launcher such as `cargo run` it would report the
/// launcher's peak whenever it exceeds the benchmark's own.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// A fixed workload of the benchmark's own, which the host's speed is read from.  It
/// uses no program code, so a change to the program cannot move it.
///
/// A dependent integer chain would not do: on a shared host, another tenant on the
/// same physical core slows throughput-bound code such as the program's by 10–60%
/// while such a chain runs at full speed.  Each reference has the shape of one kind of
/// the program's work and slows with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// 1024 sweeps of a 2×2 rotation over a 4096-amplitude state held as separate real
    /// and imaginary lanes: the layout and access pattern of the program's gate
    /// kernels, which the compiler vectorizes.
    Kernel,
    /// 1500 rounds of small allocations and `BTreeMap` inserts: the pattern of the
    /// controller, the executor hand-offs and the wire codec.
    Controller,
}

impl Reference {
    /// Milliseconds it takes on this benchmark's reference host in a quiet period.
    pub const fn nominal_ms(self) -> f64 {
        match self {
            Reference::Kernel => 4.0,
            Reference::Controller => 2.0,
        }
    }

    /// Milliseconds it takes now.
    pub fn time_ms(self) -> f64 {
        let start = std::time::Instant::now();
        match self {
            Reference::Kernel => kernel_sweeps(),
            Reference::Controller => controller_rounds(),
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

fn kernel_sweeps() {
    use std::hint::black_box;
    const AMPLITUDES: usize = 4096;
    let (mut re, mut im) = (vec![1.0f64; AMPLITUDES], vec![0.0f64; AMPLITUDES]);
    let (c, s) = (0.8f64, 0.6f64);
    for sweep in 0..1024 {
        let stride = 1usize << (sweep % 12);
        for (block_re, block_im) in re
            .chunks_exact_mut(2 * stride)
            .zip(im.chunks_exact_mut(2 * stride))
        {
            let (lo_re, hi_re) = block_re.split_at_mut(stride);
            let (lo_im, hi_im) = block_im.split_at_mut(stride);
            for k in 0..stride {
                let (ar, ai, br, bi) = (lo_re[k], lo_im[k], hi_re[k], hi_im[k]);
                lo_re[k] = c * ar - s * bi;
                lo_im[k] = c * ai + s * br;
                hi_re[k] = c * br - s * ai;
                hi_im[k] = c * bi + s * ar;
            }
        }
        black_box((&mut re, &mut im));
    }
}

fn controller_rounds() {
    use std::hint::black_box;
    let mut total = 0usize;
    for round in 0..1500u64 {
        let boxes: Vec<Box<[u64; 8]>> = (0..20).map(|j| Box::new([round ^ j; 8])).collect();
        let map: std::collections::BTreeMap<u64, usize> = boxes
            .iter()
            .enumerate()
            .map(|(j, b)| (b[0].wrapping_mul(0x9E37_79B9) ^ j as u64, j))
            .collect();
        total += black_box(map).len();
    }
    black_box(total);
}
