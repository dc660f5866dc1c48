//! Shared experiment infrastructure for the paper-reproduction harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper,
//! except `bench_json` and `serve_bench`, which record the kernel and
//! serving snapshots (DESIGN.md §4 is the index). This library provides
//! the common pieces: quick/full experiment scaling, the format zoo of
//! Table II / Fig 20, standard workload builders, and training runners that
//! couple the `fast-nn` training loop with the `fast-hw` cost meter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formats;
pub mod runner;
pub mod suite;
pub mod table;
pub mod workloads;

/// Experiment scale: `Quick` finishes in seconds-to-minutes per binary;
/// `Full` runs the larger grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced grid for fast iteration and CI.
    Quick,
    /// The full experiment grid.
    Full,
}

impl Scale {
    /// Reads the scale from argv: `--scale quick|full` (or `--scale=…`),
    /// `Quick` when absent.
    ///
    /// Exits with status 2 on any other value, naming the accepted set — a
    /// typo must not silently run the quick grid.
    pub fn from_args() -> Scale {
        let mut args = std::env::args().skip(1);
        let mut value = None;
        while let Some(a) = args.next() {
            if a == "--scale" {
                value = Some(args.next().unwrap_or_default());
            } else if let Some(v) = a.strip_prefix("--scale=") {
                value = Some(v.to_string());
            }
        }
        value
            .map_or(Ok(Scale::Quick), |v| Scale::parse(&v))
            .unwrap_or_else(|why| {
                eprintln!("{why}");
                std::process::exit(2)
            })
    }

    fn parse(v: &str) -> Result<Scale, String> {
        match v {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "--scale {other:?} is not recognised: accepted values are quick|full \
                 (absent = quick)"
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
