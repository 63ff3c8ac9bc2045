//! The correctness gate: `expected.json` pins, per workload, everything a
//! repetition's verdict must reproduce. Each row records where its numbers
//! came from, and none came from the kernel under test.

use crate::json::Json;
use crate::workloads::{Pins, Workload};

pub const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The pinned `(name, value)` pairs of `workload`'s row.
pub fn pins_of(workload: Workload) -> Vec<(String, Json)> {
    let root = Json::parse(EXPECTED_JSON).unwrap_or_else(|e| panic!("expected.json: {e}"));
    root.get("rows")
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|row| row.get("workload").and_then(Json::as_str) == Some(workload.name()))
        })
        .and_then(|row| row.get("pins"))
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("expected.json has no pins for {}", workload.name()))
        .to_vec()
}

/// The first difference between what was pinned and what was observed,
/// or `None` when they agree on every name and value.
pub fn mismatch(expected: &[(String, Json)], observed: &Pins) -> Option<String> {
    for (name, want) in expected {
        match observed.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => {
                return Some(format!(
                    "{name}: expected {}, observed {}",
                    want.render(),
                    got.render()
                ))
            }
            None => return Some(format!("{name}: expected {}, not observed", want.render())),
        }
    }
    observed
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        .map(|(n, got)| format!("{n}: observed {}, not pinned", got.render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_row_with_a_provenance() {
        let root = Json::parse(EXPECTED_JSON).expect("expected.json parses");
        let rows = root.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), Workload::ALL.len());
        for (row, workload) in rows.iter().zip(Workload::ALL) {
            assert_eq!(
                row.get("workload").and_then(Json::as_str),
                Some(workload.name())
            );
            let provenance = row.get("provenance").and_then(Json::as_str).unwrap_or("");
            assert!(provenance.len() > 20, "{}: provenance", workload.name());
            pins_of(workload);
        }
    }

    #[test]
    fn mismatch_names_the_first_differing_pin() {
        let expected = vec![
            ("verdict".to_string(), Json::Str("holds".into())),
            ("configs".to_string(), Json::Num(10.0)),
        ];
        let agree: Pins = vec![
            ("verdict", Json::Str("holds".into())),
            ("configs", Json::Num(10.0)),
        ];
        assert_eq!(mismatch(&expected, &agree), None);
        let wrong: Pins = vec![
            ("verdict", Json::Str("holds".into())),
            ("configs", Json::Num(11.0)),
        ];
        assert_eq!(
            mismatch(&expected, &wrong).as_deref(),
            Some("configs: expected 10, observed 11")
        );
        let short: Pins = vec![("verdict", Json::Str("holds".into()))];
        assert!(mismatch(&expected, &short)
            .unwrap()
            .contains("not observed"));
        let long: Pins = [agree, vec![("extra", Json::Bool(true))]].concat();
        assert!(mismatch(&expected, &long).unwrap().contains("not pinned"));
    }
}
