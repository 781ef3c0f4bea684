//! Host clocks, the host-speed probe, per-layer timers, medians, the
//! output digest and the metric report every workload fills in.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The probe's time at the nominal host speed: its typical time on the
/// 2-vCPU box the bounds in `BENCHMARK.json` were set on. It fixes the
/// scale of adjusted seconds and nothing else.
pub const PROBE_NOMINAL_S: f64 = 0.075;

/// A fixed host-speed probe: 300,000 inserts and ordered lookups with
/// removals on a `BTreeMap` of up to 50,000 keys, driven by a fixed
/// xorshift sequence. It uses only the standard library, so no change to
/// the repository changes its work; its time tracks how fast this host runs
/// pointer-heavy code right now. Returns its wall seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let (mut k, mut acc) = (0x0139_408d_cbbf_7a44_u64, 0u64);
    for i in 0..300_000u64 {
        k ^= k << 13;
        k ^= k >> 7;
        k ^= k << 17;
        map.insert(k % 50_000, i);
        if let Some((&hit, _)) = map.range((k / 3) % 50_000..).next() {
            acc = acc.wrapping_add(hit);
            map.remove(&hit);
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Host-speed adjustment. The shared host this benchmark runs on changes
/// speed by up to 2x over minutes, for every kind of code at once, and the
/// probe slows down with it. The probe runs before the first sample and
/// after every sample; a sample's seconds are multiplied by
/// `PROBE_NOMINAL_S` over the mean of the two probes around it, which
/// expresses them at the nominal host speed, so runs made minutes apart
/// compare.
#[derive(Debug)]
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            probes: vec![probe()],
        }
    }

    /// Run and time `f` into `into`, then probe the host.
    pub fn time<T>(&mut self, into: &mut Samples, f: impl FnOnce() -> T) -> T {
        let (out, raw) = sample(f);
        self.probes.push(probe());
        let around = &self.probes[self.probes.len() - 2..];
        let k = PROBE_NOMINAL_S / ((around[0] + around[1]) / 2.0);
        into.raw.push(raw);
        into.adjusted.push(Sample {
            wall: raw.wall * k,
            cpu: raw.cpu * k,
        });
        out
    }

    pub fn median_probe_s(&self) -> f64 {
        median(&self.probes)
    }
}

/// Repeated samples of one operation, as measured and host-adjusted.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    raw: Vec<Sample>,
    adjusted: Vec<Sample>,
}

impl Samples {
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Medians of wall and CPU seconds: (adjusted, as measured).
    pub fn medians(&self) -> (Sample, Sample) {
        let med = |v: &[Sample]| Sample {
            wall: median(&v.iter().map(|s| s.wall).collect::<Vec<_>>()),
            cpu: median(&v.iter().map(|s| s.cpu).collect::<Vec<_>>()),
        };
        (med(&self.adjusted), med(&self.raw))
    }
}

/// Process user+sys CPU seconds (`/proc/self/stat` fields 14 and 15, in
/// the kernel's fixed 100 Hz `USER_HZ` ticks).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, starting with the state (field 3).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric stat field") as f64 };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident memory of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// Wall and CPU seconds of one measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
}

/// Run `f` once, timing its wall and CPU seconds.
pub fn sample<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_secs() - cpu0;
    (out, Sample { wall, cpu })
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Busy time and call count of one layer, recorded around calls into it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub nanos: u64,
    pub calls: u64,
}

impl Layer {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.nanos += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    pub fn add(&mut self, other: Layer) {
        self.nanos += other.nanos;
        self.calls += other.calls;
    }

    pub fn secs(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// [`Layer`] for wrappers the simulator owns behind `&self` or a box:
/// relaxed atomics, because the counts publish no other data.
#[derive(Debug, Default)]
pub struct SharedLayer {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl SharedLayer {
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn take(&self) -> Layer {
        Layer {
            nanos: self.nanos.swap(0, Ordering::Relaxed),
            calls: self.calls.swap(0, Ordering::Relaxed),
        }
    }
}

/// FNV-1a over the bit patterns of a workload's simulated outputs: equal
/// digests mean byte-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_f64(&mut self, x: f64) {
        self.add(x.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one workload run reports: metrics by name with units, plus the
/// operation and check tally behind `attempted` / `failed`.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one operation or output check; a false `ok` is a failure and
    /// is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Report an untraced run's end-to-end metrics: one unit of work's
/// `(adjusted, as measured)` wall and CPU seconds, the set-up's, and the
/// `work` items one unit does (named for the workload). The figures as
/// measured are printed alongside.
pub fn report_end_to_end(
    report: &mut Report,
    host: &HostSpeed,
    (unit, raw_unit): (Sample, Sample),
    (setup, raw_setup): (Sample, Sample),
    (work_name, work): (&str, u64),
) {
    println!(
        "host probe median {} s; as measured: wall_s={} setup_s={} cpu_s={} {work_name}={}",
        host.median_probe_s(),
        raw_unit.wall,
        raw_setup.wall,
        raw_unit.cpu,
        work as f64 / raw_unit.wall
    );
    report.metric("wall_s", unit.wall, "s");
    report.metric("setup_s", setup.wall, "s");
    report.metric("cpu_s", unit.cpu, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("throughput_per_s", work as f64 / unit.wall, "1/s");
    println!("{work_name} {} 1/s", work as f64 / unit.wall);
}
