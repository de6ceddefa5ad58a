//! Readings about the process and the host it shares: process CPU time
//! and involuntary context switches (`getrusage`), peak RSS, CPU steal
//! ticks and the load average (procfs). Host noise is recorded beside
//! every run as a diagnostic, never as a gated metric.

use scrutinizer_engine::protocol::Json;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
/// Index of `ru_nivcsw` among the trailing longs.
const NIVCSW: usize = 13;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this target.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU seconds of the whole process, every thread
/// included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let usage = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU steal ticks summed over all CPUs since boot.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A host-noise reading at one instant; [`Noise::since`] turns two into
/// the run's diagnostics.
pub struct Noise {
    steal: u64,
    involuntary: i64,
}

impl Noise {
    pub fn now() -> Noise {
        Noise {
            steal: steal_ticks(),
            involuntary: rusage().longs[NIVCSW],
        }
    }

    /// Steal ticks, involuntary switches and the 1-minute load since
    /// `self`.
    pub fn since(&self) -> Json {
        let now = Noise::now();
        Json::Obj(vec![
            (
                "steal_ticks".into(),
                Json::Num(now.steal.saturating_sub(self.steal) as f64),
            ),
            (
                "involuntary_switches".into(),
                Json::Num((now.involuntary - self.involuntary) as f64),
            ),
            ("load_1m".into(), Json::Num(load_1m())),
        ])
    }
}

/// Milliseconds a fixed reference kernel takes right now: integer
/// mixing plus dependent random reads over an 8 MB table, a rough
/// stand-in for the engine's mix of compute and cache misses. A host
/// speed probe, reported beside the metrics and never folded into them.
pub fn reference_ms() -> f64 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..(1u64 << 20))
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    });
    let start = std::time::Instant::now();
    let mut x = 0x1234_5678_u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(table[(x as usize) & (table.len() - 1)]);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
