//! The paper's verdicts, pinned: the ledger is the checked-in `CLAIMS.txt`,
//! every claim holds, and each is a row of EXPERIMENTS.md's claims table.

#[test]
fn every_claim_holds_as_claims_txt_records_it() {
    let ledger = safety_liveness_exclusion::claims::ledger();
    let now: String = ledger.iter().map(|claim| format!("{claim}\n")).collect();
    let hint = "review it, then `cargo run --release --example claims > CLAIMS.txt`";
    let pinned = include_str!("../CLAIMS.txt");
    assert!(now == pinned, "the ledger moved; {hint}:\n{now}");
    let table = include_str!("../EXPERIMENTS.md");
    for claim in &ledger {
        assert!(claim.holds, "{claim}");
        let row = format!("| **{}**", claim.id);
        let listed = table.lines().any(|line| line.starts_with(&row));
        assert!(listed, "no `{row}` row in EXPERIMENTS.md's claims table");
    }
}
