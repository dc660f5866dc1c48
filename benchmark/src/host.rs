//! What the benchmark reads about the machine it runs on, and the
//! calibration kernel that shows machine drift.

use std::hint::black_box;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, if `/proc/loadavg` is readable.
pub fn load_average_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Threads alive in this process right now.
pub fn thread_count() -> Option<usize> {
    proc_status_kb("Threads:").map(|n| n as usize)
}

/// The commit of the checkout this runs in, read from `.git` without
/// spawning a process; `"unknown"` outside a git checkout (the acceptance
/// driver's checkouts are plain directories).
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

const CALIB_N: usize = 48;
const CALIB_COPY_BYTES: usize = 256 * 1024;

/// Buffers of the calibration kernel: a scalar 48³ fp32 GEMM and a 256 KiB
/// copy, written here so that no change to the program under test can move
/// it. It is reported as `host.calib_ms` so a reader can see whether the
/// machine drifted between two runs; it is never used to normalise a gated
/// metric (as a divisor it added 3-6 % noise on a quiet box).
pub struct Calib {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    src: Vec<u8>,
    dst: Vec<u8>,
    pub samples_ms: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        let fill = |k: usize| {
            (0..CALIB_N * CALIB_N)
                .map(|i| ((i * k) % 13) as f32 * 0.125)
                .collect()
        };
        Calib {
            a: fill(7),
            b: fill(11),
            c: vec![0.0; CALIB_N * CALIB_N],
            src: (0..CALIB_COPY_BYTES).map(|i| i as u8).collect(),
            dst: vec![0; CALIB_COPY_BYTES],
            samples_ms: Vec::new(),
        }
    }

    /// Takes five samples, each ten GEMMs and ten copies.
    pub fn sample(&mut self) {
        let n = CALIB_N;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..10 {
                for i in 0..n {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for k in 0..n {
                            acc += self.a[i * n + k] * self.b[k * n + j];
                        }
                        self.c[i * n + j] = acc;
                    }
                }
                black_box(&mut self.c);
                self.dst.copy_from_slice(black_box(&self.src));
                black_box(&mut self.dst);
            }
            self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
}
