//! The deterministic entries of the paper-claims ledger (`fast_bench::claims`,
//! DESIGN.md §4) keep the verdicts committed in README's "Paper claims"
//! table. Training entries take minutes and are checked by
//! `cargo run --release -p fast_bench --bin paper`.

use fast_bench::claims::{claim, Lab, Verdict};
use fast_bench::Scale;

#[test]
fn deterministic_claims_keep_their_committed_verdicts() {
    let mut lab = Lab::new(Scale::Quick);
    for id in [
        "fig2-storage",
        "fig5-dot",
        "fig13-passes",
        "thm1-sr-mean",
        "table3-area",
        "table4-area",
        "fmac-int-kernel",
    ] {
        let finding = claim(id).expect("the ledger has the claim").check(&mut lab);
        assert_eq!(finding.verdict, Verdict::Reproduced, "{}", finding.row());
    }
}
