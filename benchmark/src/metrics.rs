//! The metric declarations, read from the repo's `BENCHMARK.json` — the one
//! place a metric's name, unit, direction and bound are written down — and
//! the set of values one run reports against them.

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `Some` for end-to-end metrics: the share of the other set's median
    /// by which a median may be worse before it counts as a regression.
    pub bound: Option<f64>,
    pub lower_is_better: bool,
}

impl Declared {
    /// Counts repeat exactly between runs of one build; everything else
    /// is a measurement.
    pub fn is_count(&self) -> bool {
        self.unit == "count"
    }
}

pub struct Manifest {
    /// The workloads the driver runs and gates, by name.
    pub workloads: Vec<String>,
    /// How long one run measures unless `--seconds` says otherwise.
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    pub fn load() -> Manifest {
        Manifest::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing list {key:?}"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                        lower_is_better: text_of(m, "better")? == "lower",
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The values of one run, one per declared metric. A per-layer metric
/// nobody set reads 0: the workload never calls that layer.
pub struct Metrics<'m> {
    declared: &'m [Declared],
    values: Vec<Option<f64>>,
}

impl<'m> Metrics<'m> {
    pub fn new(declared: &'m [Declared]) -> Self {
        Metrics {
            declared,
            values: vec![None; declared.len()],
        }
    }

    /// Sets a metric by name.
    ///
    /// # Panics
    ///
    /// Panics on a name `BENCHMARK.json` does not declare for this kind of
    /// run: the harness and the declaration must not drift apart.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in BENCHMARK.json"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.declared.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'m Declared, f64)> + '_ {
        self.declared
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.unwrap_or(0.0)))
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in declaration order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, v)| (d.name.clone(), metric_json(v, &d.unit)))
                .collect(),
        )
    }
}

/// One metric of a result line: `{"value": v, "unit": u}`.
pub fn metric_json(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn the_manifest_gates_every_harness_workload_but_serve_burst() {
        let declared = Manifest::load().workloads;
        // `serve-burst` runs in every full set but is not declared: its
        // latency is the sandbox disk's fdatasync latency (see README).
        let ours = Workload::ALL.iter().map(|w| w.name());
        let gated: Vec<&str> = ours.filter(|w| *w != "serve-burst").collect();
        assert_eq!(declared, gated);
    }

    #[test]
    fn every_end_to_end_metric_is_bounded_and_setup_has_the_widest_bound() {
        let manifest = Manifest::load();
        let bound = |d: &Declared| d.bound.unwrap_or_else(|| panic!("{} unbounded", d.name));
        assert!(manifest.end_to_end.iter().all(|d| bound(d) <= 0.25));
        let setup = manifest
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is declared");
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(manifest.end_to_end.iter().all(|d| bound(d) <= bound(setup)));
        assert!(manifest.per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn unset_metrics_read_zero_and_undeclared_ones_are_refused() {
        let manifest = Manifest::load();
        let mut m = Metrics::new(&manifest.per_layer);
        m.set("engine.checker.configs", 151960.0);
        assert_eq!(m.get("engine.checker.configs"), Some(151960.0));
        assert_eq!(m.get("engine.spill.chunks"), None);
        assert_eq!(m.iter().count(), manifest.per_layer.len());
        assert!(m
            .iter()
            .any(|(d, v)| d.name == "engine.spill.chunks" && v == 0.0));
        let refused = std::panic::catch_unwind(move || m.set("engine.nonsense", 1.0));
        assert!(refused.is_err());
    }
}
