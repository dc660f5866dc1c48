//! Worker-pool configuration and row sharding for the GEMM kernels.
//!
//! The kernels in [`crate::matmul`] split their output into contiguous row
//! panels and fan the panels out over scoped [`std::thread`] workers. Each
//! output element is produced by exactly one worker with the same
//! accumulation order as the sequential kernel, so results are bit-identical
//! for every worker count (`crates/tensor/tests/proptests.rs` pins this);
//! `Parallelism::sequential()` simply keeps everything on the caller's
//! thread. Stochastic-rounding quantization shards across this same pool
//! with bit-identical results for every worker count (DESIGN.md §12).

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads the tensor kernels may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
}

impl Parallelism {
    /// A pool of exactly `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Parallelism {
            workers: workers.max(1),
        }
    }

    /// Single-threaded execution — today's sequential kernels.
    pub fn sequential() -> Self {
        Parallelism { workers: 1 }
    }

    /// One worker per available hardware thread (the default).
    pub fn available() -> Self {
        Parallelism::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

/// 0 = unset (resolve to the environment / [`Parallelism::available`] on
/// first use).
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by the GEMM kernels.
pub fn set_parallelism(p: Parallelism) {
    WORKERS.store(p.workers(), Ordering::Relaxed);
}

/// The default worker count when [`set_parallelism`] has not been called:
/// the `FAST_TENSOR_WORKERS` environment variable if set to a positive
/// integer (`FAST_TENSOR_WORKERS=1 cargo test` runs the whole suite
/// sequentially — the CI leg that pins worker-count independence end to
/// end), otherwise one worker per available hardware thread.
fn default_parallelism() -> Parallelism {
    static ENV: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let env = *ENV.get_or_init(|| {
        std::env::var("FAST_TENSOR_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(0)
    });
    if env > 0 {
        Parallelism::new(env)
    } else {
        Parallelism::available()
    }
}

/// The current process-wide parallelism setting.
pub fn parallelism() -> Parallelism {
    match WORKERS.load(Ordering::Relaxed) {
        0 => default_parallelism(),
        n => Parallelism::new(n),
    }
}

/// Minimum per-worker share of multiply-accumulates before a GEMM is worth
/// sharding (thread spawn/join costs ~10µs; this is ~50µs of MACs).
const MIN_FLOPS_PER_WORKER: usize = 1 << 17;

/// Rows per worker panel when [`shard_rows`] splits `rows` rows of
/// `flops_per_row` each, a multiple of `granule`; `rows` itself (or more)
/// when the job runs inline on the caller's thread, which it does unless
/// every worker's share reaches [`MIN_FLOPS_PER_WORKER`].
pub(crate) fn panel_rows(rows: usize, flops_per_row: usize, granule: usize) -> usize {
    let max_useful = if flops_per_row == 0 {
        1
    } else {
        (rows * flops_per_row) / MIN_FLOPS_PER_WORKER
    };
    let workers = parallelism()
        .workers()
        .min(rows.max(1))
        .min(max_useful.max(1));
    if workers <= 1 {
        return rows;
    }
    rows.div_ceil(workers).div_ceil(granule) * granule
}

/// Runs `work(row_start, panel)` over contiguous `row_len`-wide panels of
/// `out`, sharded across the configured workers. `flops_per_row` sizes the
/// job: small GEMMs run inline on the caller's thread ([`panel_rows`]).
/// Panel splits are aligned to `granule` rows so a kernel's row-blocking
/// decomposition — and therefore its per-element arithmetic — is identical
/// for every worker count.
pub(crate) fn shard_rows<F>(
    out: &mut [f32],
    row_len: usize,
    flops_per_row: usize,
    granule: usize,
    work: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    let panel = panel_rows(rows, flops_per_row, granule);
    if panel >= rows {
        work(0, out);
        return;
    }
    std::thread::scope(|scope| {
        for (w, panel_out) in out.chunks_mut(panel * row_len).enumerate() {
            let work = &work;
            scope.spawn(move || work(w * panel, panel_out));
        }
    });
}
