//! Host facts: the descriptor every result carries, process CPU time and
//! peak resident memory read from `/proc`, and the reference kernel that
//! measures how fast the host runs right now.

use std::fs;
use std::time::Instant;

/// The machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// First `model name` line of `/proc/cpuinfo` (`"unknown"` when absent).
    pub cpu_model: String,
}

impl Host {
    /// Reads the descriptor of the current machine.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host { nproc, cpu_model }
    }
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, all threads
/// included (exited ones too). Resolution is one tick (10 ms).
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name in
/// field 2 may contain spaces, so fields are counted after its closing
/// parenthesis: `utime` and `stime` are fields 14 and 15.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words in the reference kernel's random-access table (256 KiB:
/// L2-resident, like the engines' node and truth-table arrays).
const TABLE_WORDS: usize = 1 << 15;
/// Random-access steps of one reference sample.
const TABLE_STEPS: u32 = 150_000;
/// Words in the reference kernel's streamed buffer (4 MiB: past a core's
/// L2, like the lane engine's full sweeps over 64-lane state).
const STREAM_WORDS: usize = 1 << 19;
/// Passes over the streamed buffer in one reference sample.
const STREAM_PASSES: u32 = 2;
/// Median seconds of one reference sample on the reference host (the
/// 2-core Xeon VM of `perfbench/README.md`, quiet), where host speed is
/// about 1.
pub const REFERENCE_NOMINAL_S: f64 = 0.0031;
/// How much more the program's host time stretches than the kernel's when
/// the host slows: program time ∝ kernel time ^ `ELASTICITY`. Between
/// quiet and 1.8× slower periods on that host, the program's time grew by
/// the kernel's growth to the power 1.6–1.9; within ten-run sets, the
/// spread between runs was smallest at 1–1.5. 1.5 serves both (see
/// `perfbench/README.md`).
pub const ELASTICITY: f64 = 1.5;

/// A fixed integer and memory kernel that shares no code with the
/// program. Timed between the benchmark's calls, it tracks the host's
/// current speed (on a shared machine, neighbours slow the program and
/// the kernel together, the program more: see [`ELASTICITY`]), so host
/// times can be scaled to the reference host's speed.
pub struct Reference {
    table: Vec<u64>,
    stream: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        let fill = |n: usize| -> Vec<u64> {
            (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect()
        };
        Reference {
            table: fill(TABLE_WORDS),
            stream: fill(STREAM_WORDS),
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns its host seconds: xorshift-driven
    /// read-modify-writes and dependent reads over the table, with a
    /// data-dependent branch, then read-modify-write passes over the
    /// streamed buffer. The table is read through once first, so what the
    /// program's calls evicted is back in cache before timing.
    pub fn sample(&mut self) -> f64 {
        let mask = TABLE_WORDS as u64 - 1;
        let t = &mut self.table;
        std::hint::black_box(t.iter().fold(0u64, |a, &w| a ^ w));
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut acc: u64 = 0;
        let t0 = Instant::now();
        for _ in 0..TABLE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x & mask) as usize;
            let v = t[i].rotate_left((acc & 63) as u32) ^ x;
            t[i] = v;
            let j = ((v ^ acc) & mask) as usize;
            acc = if v & 1 == 0 {
                acc.wrapping_add(t[j])
            } else {
                acc ^ t[j].wrapping_mul(3)
            };
        }
        for _ in 0..STREAM_PASSES {
            for w in &mut self.stream {
                *w = (*w ^ acc).rotate_left(1);
                acc = acc.wrapping_add(*w);
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

/// Samples every kernel at once, one thread each (one per campaign worker
/// thread, so the sample covers the cores the campaigns run on), and
/// returns their mean seconds.
pub fn sample_together(references: &mut [Reference]) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = references
            .iter_mut()
            .map(|r| s.spawn(move || r.sample()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    times.iter().sum::<f64>() / times.len().max(1) as f64
}

/// Host speed relative to the reference host from reference samples:
/// ([`REFERENCE_NOMINAL_S`] over their median) ^ [`ELASTICITY`], or 1
/// when there are none. Multiplying a host time by it gives the time at
/// the reference speed.
pub fn speed(samples: &[f64]) -> f64 {
    let m = crate::stats::median(samples);
    if m > 0.0 {
        (REFERENCE_NOMINAL_S / m).powf(ELASTICITY)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_name() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 3 0 100";
        assert_eq!(parse_stat_cpu_ticks(line), Some(280));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_process_readings() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(Host::detect().nproc >= 1);
    }

    #[test]
    fn speed_is_nominal_over_the_median_sample_to_the_elasticity() {
        let n = REFERENCE_NOMINAL_S;
        assert_eq!(speed(&[n, 2.0 * n, 4.0 * n]), 0.5f64.powf(ELASTICITY));
        assert_eq!(speed(&[]), 1.0);
        let mut r = [Reference::default(), Reference::default()];
        assert!(sample_together(&mut r) > 0.0);
    }
}
