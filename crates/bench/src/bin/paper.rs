//! Checks the paper's claims and prints the ledger as a Markdown table, one
//! row per claim (DESIGN.md §4).
//!
//! ```text
//! paper [--claim ID] [--scale quick|full]
//! ```
//!
//! Without `--claim` every claim is checked. Runs progress to stderr; the
//! table on stdout is byte-identical from run to run. The exit status is 0
//! whatever the verdicts, and 2 for an argument, claim id or scale the
//! ledger does not know.

use fast_bench::claims::{parse_args, Lab, HEADER};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (claims, scale) = parse_args(&args).unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(2)
    });
    let mut lab = Lab::new(scale);
    println!("{HEADER}");
    for claim in claims {
        println!("{}", claim.check(&mut lab).row());
    }
}
