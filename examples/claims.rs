//! Prints the paper's verdicts, the ledger `CLAIMS.txt` holds.
//! Run with: `cargo run --release --example claims`

fn main() {
    for claim in safety_liveness_exclusion::claims::ledger() {
        println!("{claim}");
    }
}
