//! The host record printed with every result: numbers from different
//! hosts must not be compared, so each result names its host.

use std::time::Instant;

/// What a result must carry about the machine and build that made it.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The CPU ids the process may run on (its affinity mask), in order.
    pub cpus: Vec<usize>,
    /// The CPU model string.
    pub cpu_model: String,
    /// The kernel clocksource behind `Instant::now()`.
    pub clocksource: String,
    /// Measured cost of one `Instant::now()` call, in ns.
    pub instant_ns: f64,
    /// The compiler that built this benchmark.
    pub rustc: &'static str,
    /// The commit measured, when the checkout is a git repository.
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    #[must_use]
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Host {
            nproc,
            cpus: allowed_cpus().unwrap_or_else(|| (0..nproc).collect()),
            cpu_model: cpu_model(),
            clocksource: read_trimmed(
                "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            )
            .unwrap_or_else(|| "unknown".to_owned()),
            instant_ns: instant_now_ns(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
        }
    }

    /// One line, `key=value` pairs.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpus={} cpu=\"{}\" clocksource={} instant_now_ns={:.1} rustc=\"{}\" commit={}",
            self.nproc,
            self.cpus
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.cpu_model,
            self.clocksource,
            self.instant_ns,
            self.rustc,
            self.commit
        )
    }

    /// The CPU pass `pass` of a rotation runs on: the allowed CPUs in
    /// turn.
    #[must_use]
    pub fn cpu_for(&self, pass: usize) -> usize {
        self.cpus[pass % self.cpus.len()]
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = read_trimmed(".git/HEAD")?;
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    read_trimmed(&format!(".git/{reference}")).or_else(|| {
        std::fs::read_to_string(".git/packed-refs")
            .ok()
            .and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            })
    })
}

/// The cheapest of five timings of a million `Instant::now()` calls.
#[must_use]
pub fn instant_now_ns() -> f64 {
    const CALLS: u32 = 1_000_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..CALLS {
                last = std::hint::black_box(Instant::now());
            }
            (last - start).as_nanos() as f64 / f64::from(CALLS)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Bytes of the CPU masks passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPU ids in this thread's affinity mask; `None` when it cannot be
/// read (or off Linux).
fn allowed_cpus() -> Option<Vec<usize>> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `mask`, a
        // live array of exactly that size; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..64 * MASK_WORDS)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect();
        (rc == 0 && !cpus.is_empty()).then_some(cpus)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Moves the calling thread onto logical CPU `cpu`. Each CPU of a
/// shared host runs at its own speed for seconds at a time, so a
/// single-threaded measurement that stays on one CPU reads that CPU's
/// phase; rotating over the CPUs (see [`Host::cpu_for`]) samples them
/// all in every run. Returns whether the thread was moved: a failure (or
/// a non-Linux host) leaves it where the OS put it, and the caller says
/// so in its run summary.
pub fn pin_to(cpu: usize) -> bool {
    pin_thread(0, cpu)
}

/// Moves every thread of the process onto logical CPU `cpu`, as
/// [`pin_to`] moves one: an in-process server and its clients then take
/// their turns on that CPU. Threads started later inherit the mask of
/// the thread that starts them. Returns whether every thread was moved.
pub fn pin_process_to(cpu: usize) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut all = true;
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            // A thread that ended between listing and pinning needs no CPU.
            all &= pin_thread(tid, cpu) || !task.path().exists();
        }
    }
    all
}

/// Sets the affinity of thread `tid` (0: the calling thread) to `cpu`.
fn pin_thread(tid: i32, cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        if cpu >= 64 * MASK_WORDS {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size` bytes from `mask`, a live
        // array of exactly that size; `tid` names a thread of this
        // process, or the calling thread when 0.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (tid, cpu);
        false
    }
}
