//! The paper's verdicts, pinned: the ledger is the checked-in `CLAIMS.txt`,
//! every claim holds, and its ids are the rows of EXPERIMENTS.md's claims
//! table, no more and no fewer.

#[test]
fn every_claim_holds_as_claims_txt_records_it() {
    let ledger = safety_liveness_exclusion::claims::ledger();
    let now: String = ledger.iter().map(|claim| format!("{claim}\n")).collect();
    let hint = "review it, then `cargo run --release --example claims > CLAIMS.txt`";
    let pinned = include_str!("../CLAIMS.txt");
    assert!(now == pinned, "the ledger moved; {hint}:\n{now}");
    // The claims table: the bold rows of the first table under its heading
    // (later tables start their rows the same way).
    let experiments = include_str!("../EXPERIMENTS.md");
    let table: Vec<&str> = (experiments.lines())
        .skip_while(|line| *line != "## Paper claims → targets")
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter(|line| line.starts_with("| **"))
        .collect();
    for claim in &ledger {
        assert!(claim.holds, "{claim}");
        let row = format!("| **{}**", claim.id);
        let listed = table.iter().any(|line| line.starts_with(&row));
        assert!(listed, "no `{row}` row in EXPERIMENTS.md's claims table");
    }
    for line in table {
        let in_ledger = (ledger.iter()).any(|c| line.starts_with(&format!("| **{}**", c.id)));
        assert!(
            in_ledger,
            "no ledger row for the claims table's {line:.40}…"
        );
    }
}
