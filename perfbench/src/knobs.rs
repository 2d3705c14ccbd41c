//! Every setting the numbers depend on, pinned in code, and the host fingerprint
//! printed with every result.
//!
//! The program reads its tuning knobs from the environment once per process.  The
//! benchmark sets each one itself before any program code runs, so an exported
//! variable cannot silently change what is measured: an override is reported loudly
//! on standard error and then replaced by the pinned value.
//!
//! The benchmark also binds its process to one CPU.  On a shared virtual host, a
//! hand-off between threads on different CPUs waits for the other CPU to wake, and that
//! wake-up latency changes from minute to minute; on one CPU every hand-off is a plain
//! context switch, whose cost belongs to the program.

use std::sync::OnceLock;

/// Executor worker threads of every executor the benchmark starts.
pub const EXECUTOR_WORKERS: usize = 1;
/// Trajectories per evaluation of the noisy backend (`h2-served`).
pub const TRAJECTORIES: usize = 4;
/// The vendored rayon's worker threads, before the cap at the host's `nproc`.
pub const RAYON_THREADS: usize = 2;

/// Environment knobs and their pinned values.  `None` pins the variable unset (the
/// program's default: unbounded executor queues).
const PINNED_ENV: &[(&str, Option<&str>)] = &[
    ("QEXEC_WORKERS", Some("1")),
    ("QEXEC_QUEUE_CAP", None),
    ("QSIM_PAR_THRESHOLD", Some("16384")),
    ("VQA_BATCH_CHUNK", Some("16")),
    ("VQA_COMPILED_CACHE", Some("8")),
    ("QNOISE_TRAJECTORIES", Some("4")),
    ("QOBS", Some("0")),
    ("QOBS_RING_CAP", Some("4096")),
    ("QNET_ADDR", Some("127.0.0.1:0")),
    ("QNET_MAX_CONNS", Some("64")),
    ("QNET_MAX_FRAME", Some("8388608")),
];

/// The rayon worker count the benchmark uses on this host.
pub fn rayon_threads() -> usize {
    RAYON_THREADS.min(nproc())
}

/// The CPUs the process may use when it starts, read once: binding the process to one
/// CPU later does not change the figure.
fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// glibc's `mallopt` parameter for the most malloc arenas.
const M_ARENA_MAX: i32 = -8;

/// Words of a `cpu_set_t` (1024 CPUs), as glibc lays it out.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Binds the calling thread, and so every thread it starts afterwards, to the last CPU
/// it may use (the first usually takes most device interrupts), and returns that CPU.
/// Must run before the benchmark starts a thread.
pub fn bind_one_cpu() -> Result<usize, String> {
    let size = CPU_SET_WORDS * std::mem::size_of::<u64>();
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of `size` bytes, as `sched_getaffinity`
    // requires; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes holding one CPU.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Pins every knob.  Must run before any program code reads one (the program caches
/// each on first use) and before the benchmark starts a thread.  Returns one warning
/// per environment override it replaced.
pub fn pin() -> Vec<String> {
    let rayon = rayon_threads().to_string();
    let mut warnings = Vec::new();
    let all = PINNED_ENV
        .iter()
        .copied()
        .chain(std::iter::once(("RAYON_NUM_THREADS", Some(rayon.as_str()))));
    for (name, pinned) in all {
        let found = std::env::var(name).ok();
        if found.is_some() && found.as_deref() != pinned {
            warnings.push(format!(
                "WARNING: the environment sets {name}={}; the benchmark pins it to {} and \
                 ignores the environment",
                found.unwrap_or_default(),
                pinned.unwrap_or("<unset>")
            ));
        }
        match pinned {
            Some(value) => std::env::set_var(name, value),
            None => std::env::remove_var(name),
        }
    }
    // One malloc arena.  glibc otherwise gives a thread that finds the arenas busy a new
    // one, so how many the short-lived rayon workers create, and the peak resident set
    // with them, would follow the scheduler's timing.
    // SAFETY: `mallopt` takes two plain integers; it fails only for an unknown
    // parameter, which M_ARENA_MAX is not.
    let rc = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(rc, 1, "mallopt(M_ARENA_MAX, 1) failed");
    rayon::ThreadPoolBuilder::new()
        .num_threads(rayon_threads())
        .build_global()
        .expect("the vendored rayon accepts a global worker count");
    warnings
}

/// One line describing the host and build: CPU model, `nproc`, the CPU the process is
/// bound to, the `target-cpu` the checkout's `.cargo/config.toml` pins, and the pinned
/// thread counts.
pub fn fingerprint(bound_cpu: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let target_cpu = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|config| {
            config.lines().find_map(|line| {
                let line = line.trim();
                if line.starts_with('#') {
                    return None;
                }
                let at = line.find("target-cpu=")? + "target-cpu=".len();
                Some(
                    line[at..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                        .collect::<String>(),
                )
            })
        })
        .unwrap_or_else(|| "none".into());
    format!(
        "host: cpu=\"{cpu}\" nproc={} bound_cpu={bound_cpu} target-cpu={target_cpu} rayon_threads={} \
         executor_workers={EXECUTOR_WORKERS} trajectories={TRAJECTORIES}",
        nproc(),
        rayon_threads()
    )
}
