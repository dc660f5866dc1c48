//! The paper's claims as checked verdicts, plus the kernel and serving
//! snapshots.
//!
//! [`claims`] is the ledger the `paper` binary prints: every claim of the
//! paper the repository tests, its measurement, and a verdict (DESIGN.md §4).
//! `bench_json` and `serve_bench` record the kernel and serving snapshots.
//! The rest of this library serves the ledger: quick/full experiment
//! scaling, the format zoo of Table II, the paper-scale workloads, and
//! training runners that couple the `fast-nn` training loop with the
//! `fast-hw` cost meter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod formats;
pub mod runner;
pub mod suite;
pub mod workloads;

/// Experiment scale: `Quick` finishes in minutes; `Full` runs the larger
/// datasets and schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced grid for fast iteration and CI.
    Quick,
    /// The full experiment grid.
    Full,
}

impl Scale {
    /// Parses a `--scale` value.
    ///
    /// # Errors
    ///
    /// Anything but `quick` or `full`, with a message naming both.
    pub fn parse(v: &str) -> Result<Scale, String> {
        match v {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "--scale {other:?} is not recognised: accepted values are quick|full"
            )),
        }
    }

    /// Picks `quick` or `full` value by scale.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("full"), Ok(Scale::Full));
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        for typo in ["anything", "Full", ""] {
            let why = Scale::parse(typo).unwrap_err();
            assert!(why.contains("quick|full"), "{why}");
        }
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
