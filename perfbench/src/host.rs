//! Host identity and the kernel counters the steal-robust metrics are
//! built from: process and per-thread CPU time from `/proc/self/stat` and
//! `/proc/thread-self/stat`, host-wide steal from `/proc/stat`, and peak
//! resident memory from `/proc/self/status`. Linux only.

use std::fs;

/// `USER_HZ`: the unit of the CPU-time fields in `/proc/*/stat`, fixed at
/// 100 by the Linux user-space ABI.
const CLOCK_TICKS_PER_SEC: u64 = 100;

/// What a reader needs to tell a slow host from slow code.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    /// [`reference_kernel_us`], read with the stamp.
    pub reference_us: f64,
}

impl HostStamp {
    pub fn read() -> HostStamp {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            reference_us: reference_kernel_us(),
        }
    }
}

/// Cumulative host CPU time from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostJiffies {
    total: u64,
    steal: u64,
}

impl HostJiffies {
    pub fn read() -> HostJiffies {
        let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
        let line = stat.lines().next().expect("/proc/stat has a cpu line");
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already inside user, so only the first eight add up.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().expect("numeric /proc/stat field"))
            .collect();
        HostJiffies {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_since(&self, earlier: &HostJiffies) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// utime + stime of a `/proc/.../stat` file, in nanoseconds.
fn stat_cpu_ns(path: &str) -> u64 {
    let stat = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0], so utime (14) and stime (15) sit at 11, 12.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks * (1_000_000_000 / CLOCK_TICKS_PER_SEC)
}

/// CPU time of the whole process, every thread it ever ran included.
pub fn process_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/self/stat")
}

/// CPU time of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/thread-self/stat")
}

/// Restarts the `VmHWM` peak at the current resident set.
pub fn reset_peak_rss() {
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// `VmHWM`: the process's peak resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Host speed stamp: the fastest of `REFERENCE_RUNS` runs of a fixed
/// kernel (xorshift-indexed loads from a 1 MiB table, about 40 µs on a
/// quiet 2-vCPU Xeon), in µs. Timed before any server starts, it tells a
/// run on a slow host from a run of slow code: the same code measured
/// 75 minutes apart on one VM moved by up to 1.9x with no steal reported.
pub fn reference_kernel_us() -> f64 {
    const REFERENCE_RUNS: usize = 64;
    let table: Vec<u32> = (0..1u32 << 18)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mask = table.len() - 1;
    let mut best = f64::MAX;
    for _ in 0..REFERENCE_RUNS {
        let t = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(u64::from(table[(x as usize) & mask]));
        }
        std::hint::black_box(acc);
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}
