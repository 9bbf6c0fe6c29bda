//! The host side of a measurement: the op clocks, the calibration that
//! tells how fast the host is running, and the diagnostics recorded
//! next to each run's metrics (steal ticks, how long this thread ran and
//! waited for a CPU, the process's peak resident memory).

/// Counters read at one instant; all are 0 where the file is missing.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Summed steal ticks of all CPUs (`/proc/stat`).
    pub steal_ticks: u64,
    /// Time this thread ran on a CPU (`/proc/thread-self/schedstat`).
    pub run_ns: u64,
    /// Time this thread waited runnable for a CPU.
    pub wait_ns: u64,
}

impl HostSample {
    pub fn now() -> HostSample {
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().next()?.to_string();
                cpu.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        let sched: Vec<u64> = std::fs::read_to_string("/proc/thread-self/schedstat")
            .unwrap_or_default()
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        HostSample {
            steal_ticks,
            run_ns: sched.first().copied().unwrap_or(0),
            wait_ns: sched.get(1).copied().unwrap_or(0),
        }
    }

    /// Counter growth from `self` to `later`, as a JSON object.
    pub fn delta_json(&self, later: &HostSample, wall_s: f64) -> String {
        format!(
            "{{\"wall_s\":{wall_s},\"steal_ticks\":{},\"run_ns\":{},\"wait_ns\":{}}}",
            later.steal_ticks.saturating_sub(self.steal_ticks),
            later.run_ns.saturating_sub(self.run_ns),
            later.wait_ns.saturating_sub(self.wait_ns)
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times one op. Ops that compute on this process's threads are timed in
/// process CPU time, which leaves out the time the hypervisor steals from
/// the VM; ops that wait on a socket are timed by the wall clock.
pub struct Stopwatch {
    cpu: bool,
    wall: std::time::Instant,
    cpu0: f64,
}

impl Stopwatch {
    pub fn start(cpu: bool) -> Stopwatch {
        Stopwatch {
            cpu,
            wall: std::time::Instant::now(),
            cpu0: if cpu { process_cpu_secs() } else { 0.0 },
        }
    }

    /// Seconds on this stopwatch's clock, and on the wall clock.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        if self.cpu {
            (process_cpu_secs() - self.cpu0, wall)
        } else {
            (wall, wall)
        }
    }
}

/// Iterations of the calibration's multiply chain: about 2 ms on the
/// reference host.
const CHAIN_ITERS: u64 = 300_000;
/// Entries of the calibration's hash map: about 1.2 ms on the reference host.
const MAP_ENTRIES: u64 = 8_000;
/// The two calibration kernels' times on the reference host in its fast
/// phase. A calibration reads 1 there.
const CHAIN_REF_SECS: f64 = 2.0e-3;
const MAP_REF_SECS: f64 = 1.2e-3;

/// How slowly the host is running this process right now, relative to
/// the reference host in its fast phase: the geometric mean of two fixed
/// kernels' times over their reference times, in process CPU time.
///
/// The kernels are the benchmark's own code, so they run the same
/// whatever the simulator does. One is a multiply chain with a
/// data-dependent branch; the other builds, probes and drops a hash map
/// of small boxed values (hashing, allocation, scattered memory). On the
/// reference host the phases that slow simulator ops by 1.3–1.9× slow the
/// chain by up to 1.4× and the map by up to 1.5×; either kernel alone
/// tracks some workloads better than others, their geometric mean tracks
/// all of them about as well as the best one does.
pub fn calibrate() -> f64 {
    let t = Stopwatch::start(true);
    let mut x = 1u64;
    for k in 0..CHAIN_ITERS {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k));
        if x >> 63 == 1 {
            x ^= k;
        }
    }
    std::hint::black_box(x);
    let chain = t.stop().0;

    let t = Stopwatch::start(true);
    let key = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut map = std::collections::HashMap::new();
    for k in 0..MAP_ENTRIES {
        map.insert(key(k), vec![k; 4]);
    }
    let sum: u64 = (0..MAP_ENTRIES)
        .map(|k| map.get(&key(k)).map_or(0, |v| v[1]))
        .sum();
    std::hint::black_box(sum);
    drop(map);
    let map = t.stop().0;

    ((chain / CHAIN_REF_SECS) * (map / MAP_REF_SECS)).sqrt()
}

/// The factor that takes a time measured between two calibrations to the
/// reference host speed.
pub fn speed_factor(before: f64, after: f64) -> f64 {
    2.0 / (before + after)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in seconds.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux), and `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t = Stopwatch::start(true);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        // Other tests run on threads of this process, so the process's
        // CPU time may exceed this thread's wall time; it must still grow.
        let (cpu, wall) = t.stop();
        assert!(cpu > 0.0 && wall > 0.0, "cpu {cpu} wall {wall}");
        assert!(t.stop().0 >= cpu);
    }

    #[test]
    fn calibration_times_a_fixed_kernel() {
        let c = calibrate();
        assert!(c > 0.0 && c < 100.0, "calibration read {c}");
        assert_eq!(speed_factor(1.0, 1.0), 1.0);
        // A host running at half speed doubles the kernels' times; the
        // factor halves the op time measured between the two calibrations.
        assert_eq!(speed_factor(2.0, 2.0), 0.5);
        assert_eq!(speed_factor(1.0, 3.0), 0.5);
    }
}
