//! The central registry of every `SLX_*` environment knob.
//!
//! The kernel reads no environment: a [`crate::Checker`] is exactly what
//! its builder says. The two knobs left configure the `slx_server`
//! binary, the one process that reads them. Every knob is one [`Knob`]
//! entry in [`REGISTRY`], every read goes through the typed accessors
//! below, and `slx-analyze` mechanically checks three-way agreement: any
//! `"SLX_*"` string literal outside this module must name a registered
//! knob, every registered knob must be referenced by the code, and the
//! EXPERIMENTS.md knob table must list exactly the registry.
//!
//! A malformed value is a **hard error naming the variable and the
//! offender**, never a silent fall-back to a default: a typo that
//! silently meant "default" would run a crash probe or a fault soak that
//! tested the wrong configuration. The `spill_codec_knob` suite drives
//! both accessors through their accept and reject paths in a dedicated
//! process.

/// The value shape a knob accepts. Drives both parsing (each kind has
/// exactly one accessor) and the documentation table `slx-analyze`
/// cross-checks against EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// A positive decimal integer; `0` is rejected as a near-certain typo.
    PositiveInt,
    /// Free-form text with its own downstream parser (e.g. the fault
    /// plan grammar); the accessor hands the raw string through and the
    /// consumer owns validation — still a hard error naming the
    /// variable, never a silent default.
    Text,
}

/// One environment knob: its name, value shape, default, and one-line
/// effect. The registry below is the single source of truth the analyzer
/// checks code and docs against.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable, verbatim.
    pub name: &'static str,
    /// What values it accepts.
    pub kind: KnobKind,
    /// Human-readable default used when the variable is unset or empty.
    pub default: &'static str,
    /// One-line effect, rendered into the docs table.
    pub doc: &'static str,
}

/// Parks a served check once it passes this many BFS levels — the
/// check service's deterministic `kill -9` window for the CI crash probe.
pub static SLX_SERVER_STALL_AFTER: Knob = Knob {
    name: "SLX_SERVER_STALL_AFTER",
    kind: KnobKind::PositiveInt,
    default: "unset (never stall)",
    doc: "slx_server crash probe: park runs after this many levels",
};

/// Seeded fault-injection plan (see [`crate::FaultPlan`]) for
/// `slx_server`'s socket seams and its checks' spill and checkpoint
/// seams; unset means the fault plane is disarmed.
pub static SLX_ENGINE_FAULT_PLAN: Knob = Knob {
    name: "SLX_ENGINE_FAULT_PLAN",
    kind: KnobKind::Text,
    default: "unset (fault injection off)",
    doc: "slx_server fault plan: seed=N[,rate=R][,ops=a+b][,kinds=x+y]",
};

/// Every knob the workspace reads, in documentation order. `slx-analyze`
/// checks this list against both the code (no unregistered `SLX_*`
/// literal, no unreferenced entry) and the EXPERIMENTS.md knob table.
pub static REGISTRY: &[&Knob] = &[&SLX_ENGINE_FAULT_PLAN, &SLX_SERVER_STALL_AFTER];

impl Knob {
    /// The raw value, or `None` when the variable is unset or empty
    /// (empty always means "use the default", for every kind).
    ///
    /// # Panics
    ///
    /// Panics on non-UTF-8 bytes: no knob accepts them, and the usual
    /// contract (name the variable and the offender) applies.
    fn raw(&self) -> Option<String> {
        let value = std::env::var_os(self.name)?;
        let Some(text) = value.to_str() else {
            panic!("{} must be valid UTF-8, got {:?}", self.name, value)
        };
        if text.is_empty() {
            return None;
        }
        Some(text.to_string())
    }

    /// Parses a [`KnobKind::PositiveInt`] knob. `None` when unset or
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics — naming the variable and the offending value — on
    /// anything that does not parse, and on `0`.
    #[must_use]
    pub fn usize_value(&self) -> Option<usize> {
        assert!(
            matches!(self.kind, KnobKind::PositiveInt),
            "{} is not an integer knob",
            self.name
        );
        let text = self.raw()?;
        match text.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            Ok(_) => panic!("{} must be a positive integer, got \"0\"", self.name),
            Err(_) => panic!(
                "{} must be a positive decimal integer, got {text:?}",
                self.name
            ),
        }
    }

    /// Reads a [`KnobKind::Text`] knob verbatim. `None` when unset or
    /// empty. The consumer owns parsing (and the hard-error contract).
    #[must_use]
    pub fn text_value(&self) -> Option<String> {
        assert!(
            matches!(self.kind, KnobKind::Text),
            "{} is not a text knob",
            self.name
        );
        self.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_sorted_per_prefix_and_slx_prefixed() {
        let names: Vec<&str> = REGISTRY.iter().map(|k| k.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate knob registered");
        assert!(names.iter().all(|n| n.starts_with("SLX_")));
    }

    #[test]
    fn accessors_reject_wrong_kinds() {
        assert!(std::panic::catch_unwind(|| SLX_SERVER_STALL_AFTER.text_value()).is_err());
        assert!(std::panic::catch_unwind(|| SLX_ENGINE_FAULT_PLAN.usize_value()).is_err());
    }

    // The accept/reject parsing contract itself (hard errors naming the
    // variable and the offender, empty-means-default) is driven end to
    // end by the process-isolated `spill_codec_knob` suite: accessors
    // read the live environment, which must not be mutated from inside
    // this concurrently-running test binary.
}
