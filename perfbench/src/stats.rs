//! The harness's own arithmetic: percentiles, rates and the process
//! counters read from `/proc`. Kept free of library calls so the
//! self-tests below pin it down in isolation.

use std::time::Instant;

/// Linux reports `utime`/`stime` in clock ticks of `1 / USER_HZ` seconds;
/// `USER_HZ` is 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank index of percentile `q` in a sorted sample of `n` values.
fn rank_index(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1
}

/// The tail latency: the highest percentile of the ladder that leaves at
/// least [`MIN_BEYOND`] samples strictly after its nearest-rank position.
/// Returns `(percentile, value, samples beyond)`; a sample too small for
/// any rung reports its minimum as percentile 0.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    if values.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for q in TAIL_LADDER {
        let i = rank_index(q.max(f64::MIN_POSITIVE), n);
        if n - 1 - i >= MIN_BEYOND {
            return (q, v[i], n - 1 - i);
        }
    }
    (0.0, v[0], n - 1)
}

/// Ops per tail block (see [`block_tail`]).
pub const TAIL_BLOCK: usize = 1000;
/// Fewest ops in a block of a run shorter than two [`TAIL_BLOCK`]s: its
/// p95 still has ten samples beyond it.
pub const MIN_TAIL_BLOCK: usize = 200;

/// The tail of a long run: split the ops into blocks of consecutive ops,
/// take each block's [`tail`], and report the median over blocks — a host
/// hiccup then moves one block, not the run's tail. Runs of at least two
/// [`TAIL_BLOCK`]s use blocks of that size; shorter runs of at least three
/// [`MIN_TAIL_BLOCK`]s use three equal blocks; the rest are one block.
/// Ops left over after whole blocks are dropped. Returns `(percentile,
/// value, samples beyond per block, blocks)`.
pub fn block_tail(values: &[f64]) -> (f64, f64, usize, usize) {
    let n = values.len();
    let size = if n >= 2 * TAIL_BLOCK {
        TAIL_BLOCK
    } else if n >= 3 * MIN_TAIL_BLOCK {
        n / 3
    } else {
        n.max(1)
    };
    let blocks: Vec<&[f64]> = values.chunks_exact(size).collect();
    if blocks.is_empty() {
        return (0.0, 0.0, 0, 0);
    }
    let tails: Vec<(f64, f64, usize)> = blocks.iter().map(|b| tail(b)).collect();
    let (pct, _, beyond) = tails[0];
    let value = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    (pct, value, beyond, blocks.len())
}

/// `count` events over `seconds` (0 for an empty interval).
pub fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// Milliseconds per 1000 units of work.
pub fn ms_per_k(total_ms: f64, units: f64) -> f64 {
    if units > 0.0 {
        total_ms * 1000.0 / units
    } else {
        0.0
    }
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the *last* `)`; `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set in MiB from the text of `/proc/<pid>/status`
/// (`VmHWM`, reported in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Process CPU time so far (all threads, including exited ones).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Steal seconds of the whole machine from the text of `/proc/stat`: the
/// eighth counter of the aggregate `cpu` line, summed over virtual CPUs —
/// time they were ready to run while the hypervisor ran another guest.
pub fn parse_proc_stat_steal_seconds(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// Machine steal time so far (0 where the kernel does not report it).
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat_steal_seconds(&s))
        .unwrap_or(0.0)
}

/// Wall, process CPU and machine steal time over an interval.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Usage {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Usage {
    /// Run `f` and measure it.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
        let start = Stamp::now();
        let out = f();
        (out, start.elapsed())
    }

    /// The share of the CPU time the process was ready to use that it got:
    /// `cpu / (cpu + steal)`, 1 with no CPU use. Process CPU time excludes
    /// steal, and the benchmark is the only busy process of its machine,
    /// so the machine's steal is time taken from it.
    pub fn served_share(&self) -> f64 {
        if self.cpu_s > 0.0 {
            self.cpu_s / (self.cpu_s + self.steal_s.max(0.0))
        } else {
            1.0
        }
    }

    /// Wall time net of steal: at the parallelism the interval ran with,
    /// the time its CPU work would take had the hypervisor taken none.
    pub fn net_wall_s(&self) -> f64 {
        self.wall_s * self.served_share()
    }

    fn add(&mut self, other: Usage) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.steal_s += other.steal_s;
    }
}

/// A reading of the three clocks of [`Usage`].
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp {
            at: Instant::now(),
            cpu_s: cpu_seconds(),
            steal_s: steal_seconds(),
        }
    }

    /// Usage since this reading.
    pub fn elapsed(&self) -> Usage {
        let now = Stamp::now();
        Usage {
            wall_s: (now.at - self.at).as_secs_f64(),
            cpu_s: now.cpu_s - self.cpu_s,
            steal_s: now.steal_s - self.steal_s,
        }
    }
}

/// A closed-loop meter: times each op (wall, process CPU and machine
/// steal) so checks run between ops stay outside the measurement. Ops are
/// grouped into windows (a workload's natural cycle); rates are medians
/// over windows, so a burst of host contention moves one window, not the
/// whole run. Reported times are net of steal: a window's latencies and
/// wall time are scaled by its [`Usage::served_share`]. On a shared
/// virtual machine steal swings by tens of percent within minutes, while
/// the work the program does, and the CPU time it takes, does not.
#[derive(Debug, Default)]
pub struct Meter {
    /// Per-op latency net of steal, ms, for ops in closed windows.
    pub latencies_ms: Vec<f64>,
    /// Per-op wall latency as read, ms.
    pub raw_latencies_ms: Vec<f64>,
    /// Summed op wall time as read, s.
    pub wall_s: f64,
    /// Closed windows: query points answered and usage.
    pub windows: Vec<(f64, Usage)>,
    open: (f64, Usage),
}

impl Meter {
    /// Run one op answering `queries` query points and record it.
    pub fn time<R>(&mut self, queries: usize, op: impl FnOnce() -> R) -> R {
        let (out, usage) = Usage::measure(op);
        self.record(usage.wall_s * 1e3);
        self.wall_s += usage.wall_s;
        self.open.0 += queries as f64;
        self.open.1.add(usage);
        out
    }

    /// Record the wall latency of an op timed elsewhere; its window comes
    /// with [`Meter::close_window_with`].
    pub fn record(&mut self, latency_ms: f64) {
        self.raw_latencies_ms.push(latency_ms);
    }

    /// The wall latency of the last op recorded, ms.
    pub fn last_raw_ms(&self) -> f64 {
        self.raw_latencies_ms.last().copied().unwrap_or(0.0)
    }

    /// Close the current window (no-op when it is empty): its latencies
    /// join `latencies_ms` net of steal.
    pub fn close_window(&mut self) {
        let (queries, usage) = std::mem::take(&mut self.open);
        if usage.wall_s <= 0.0 {
            return;
        }
        let share = usage.served_share();
        let first = self.latencies_ms.len();
        let net: Vec<f64> = self.raw_latencies_ms[first..]
            .iter()
            .map(|ms| ms * share)
            .collect();
        self.latencies_ms.extend(net);
        self.windows.push((queries, usage));
    }

    /// Close a window measured elsewhere: `queries` answered over `usage`
    /// by the ops recorded since the last window.
    pub fn close_window_with(&mut self, queries: f64, usage: Usage) {
        self.open = (queries, usage);
        self.close_window();
    }

    /// Query points per second net of steal, median over windows.
    pub fn queries_per_s(&self) -> f64 {
        median(
            &self
                .windows
                .iter()
                .map(|(q, u)| rate(*q, u.net_wall_s()))
                .collect::<Vec<_>>(),
        )
    }

    /// Process CPU ms per 1000 query points, median over windows.
    pub fn cpu_ms_per_kquery(&self) -> f64 {
        median(
            &self
                .windows
                .iter()
                .map(|(q, u)| ms_per_k(u.cpu_s * 1e3, *q))
                .collect::<Vec<_>>(),
        )
    }

    /// Summed usage over closed windows.
    pub fn total(&self) -> Usage {
        let mut total = Usage::default();
        for (_, u) in &self.windows {
            total.add(*u);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        // 1..=100: p90 sits at rank 90, ten samples beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0, 10));
        // 1..=1000: p99 sits at rank 990, ten beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0, 10));
        // 40 samples: p75 (rank 30) leaves exactly ten beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 30.0, 10));
        // 39 samples: p75 would leave nine, so the rule falls back to p50.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 20.0, 19));
        // Too few samples for any rung: the minimum at percentile 0.
        assert_eq!(tail(&[5.0, 7.0, 6.0]), (0.0, 5.0, 2));
        // Order of the input does not matter.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), (90.0, 90.0, 10));
    }

    #[test]
    fn block_tail_takes_the_median_of_per_block_tails() {
        // Short runs are one block: the plain rule.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(block_tail(&v), (90.0, 90.0, 10, 1));
        // Three blocks of 1..=1000; the middle one is slowed tenfold. Each
        // block's p99 leaves ten samples beyond it; the median ignores the
        // slow block, and the trailing partial block is dropped.
        let block: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut v = block.clone();
        v.extend(block.iter().map(|x| x * 10.0));
        v.extend(&block);
        v.extend(&block[..500]);
        assert_eq!(block_tail(&v), (99.0, 990.0, 10, 3));
        // 601 ops: three blocks of 200, p95 each (rank 190, ten beyond);
        // a slow middle block is outvoted and the last op dropped.
        let block: Vec<f64> = (1..=200).map(f64::from).collect();
        let mut v = block.clone();
        v.extend(block.iter().map(|x| x * 10.0));
        v.extend(&block);
        v.push(1e9);
        assert_eq!(block_tail(&v), (95.0, 190.0, 10, 3));
        // 599 ops: one block.
        assert_eq!(block_tail(&v[..599]).3, 1);
        assert_eq!(block_tail(&[]), (0.0, 0.0, 0, 0));
    }

    #[test]
    fn stat_parsing_counts_fields_after_the_last_paren() {
        let stat = "4242 (odd) name) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 75 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parsing_reads_vm_hwm_in_mib() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let t0 = cpu_seconds();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > t0);
    }

    #[test]
    fn rates_and_per_kilo_costs() {
        assert_eq!(rate(500.0, 2.0), 250.0);
        assert_eq!(rate(5.0, 0.0), 0.0);
        assert_eq!(ms_per_k(30.0, 15_000.0), 2.0);
        assert_eq!(ms_per_k(30.0, 0.0), 0.0);
    }

    #[test]
    fn meter_reports_medians_over_windows() {
        let mut m = Meter::default();
        let out = m.time(8, || 7);
        m.time(4, || ());
        m.close_window();
        m.close_window(); // empty: ignored
        assert_eq!(out, 7);
        assert_eq!(m.latencies_ms.len(), 2);
        assert_eq!(m.windows.len(), 1);
        assert_eq!(m.windows[0].0, 12.0);
        let summed_ms: f64 = m.raw_latencies_ms.iter().sum();
        assert!((m.wall_s * 1e3 - summed_ms).abs() < 1e-9);
        // Three windows without steal: 100, 200 and 1000 queries per
        // second; the burst window does not move the median.
        let usage = |wall_s, cpu_s, steal_s| Usage {
            wall_s,
            cpu_s,
            steal_s,
        };
        let mut m = Meter::default();
        m.close_window_with(100.0, usage(1.0, 0.5, 0.0));
        m.close_window_with(400.0, usage(2.0, 1.0, 0.0));
        m.close_window_with(1000.0, usage(1.0, 2.0, 0.0));
        assert_eq!(m.queries_per_s(), 200.0);
        assert_eq!(m.cpu_ms_per_kquery(), 2500.0);
        assert_eq!(m.total(), usage(4.0, 3.5, 0.0));
    }

    #[test]
    fn meter_reports_times_net_of_steal() {
        // Two ops in a window that got three quarters of the CPU time it
        // was ready to use: latencies, wall time and rate scale by 3/4.
        let mut m = Meter::default();
        m.record(40.0);
        m.record(80.0);
        let u = Usage {
            wall_s: 0.12,
            cpu_s: 0.18,
            steal_s: 0.06,
        };
        assert_eq!(u.served_share(), 0.75);
        m.close_window_with(300.0, u);
        assert_eq!(m.latencies_ms, [30.0, 60.0]);
        assert_eq!(m.raw_latencies_ms, [40.0, 80.0]);
        assert!((m.queries_per_s() - 300.0 / 0.09).abs() < 1e-6);
        assert_eq!(m.last_raw_ms(), 80.0);
        // No CPU use, or no steal: nothing to scale.
        let idle = Usage {
            wall_s: 1.0,
            cpu_s: 0.0,
            steal_s: 0.5,
        };
        assert_eq!(idle.net_wall_s(), 1.0);
        let clean = Usage { steal_s: 0.0, ..u };
        assert_eq!(clean.net_wall_s(), 0.12);
    }

    #[test]
    fn proc_stat_parsing_reads_machine_steal() {
        let stat = "cpu  805674 0 78144 1457447 243 0 215 24423 0 0\n\
                    cpu0 401850 0 40797 727519 221 0 112 13069 0 0\n";
        assert_eq!(parse_proc_stat_steal_seconds(stat), Some(244.23));
        assert_eq!(parse_proc_stat_steal_seconds("cpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat_steal_seconds("cpu  1 2 3\n"), None);
        assert!(steal_seconds() >= 0.0);
    }
}
