//! The central registry of every `SLX_*` environment knob.
//!
//! Before this module, knob parsing was string-matched across a dozen
//! files: the checker read `SLX_ENGINE_*` inline, the server and
//! checkpoint probe binaries parsed their stall knobs by hand, and the
//! authoritative list of "which variables exist, what do they accept,
//! what do they default to" lived nowhere. Now every knob is one
//! [`Knob`] entry in [`REGISTRY`], every read goes through the typed
//! accessors below, and `slx-analyze` mechanically checks three-way
//! agreement: any `"SLX_*"` string literal outside this module must name
//! a registered knob, every registered knob must be referenced by the
//! code, and the EXPERIMENTS.md knob table must list exactly the
//! registry.
//!
//! The failure contract is unchanged from PR 7: a malformed value is a
//! **hard error naming the variable and the offender**, never a silent
//! fall-back to a default. These variables exist to pin CI comparison
//! arms and operational budgets; a typo that silently meant "default"
//! would green-light a run that tested the wrong configuration. The
//! `spill_codec_knob` suite drives every accessor through its accept and
//! reject paths in a dedicated process.

use std::path::PathBuf;

/// The value shape a knob accepts. Drives both parsing (each kind has
/// exactly one accessor) and the documentation table `slx-analyze`
/// cross-checks against EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// A positive decimal integer; `0` is rejected as a near-certain typo.
    PositiveInt,
    /// A non-negative decimal integer; `0` is a meaningful value (e.g.
    /// "spilling off").
    NonNegativeInt,
    /// A boolean: `1`/`true` or `0`/`false`.
    Flag,
    /// One of a closed set of strings.
    Choice(&'static [&'static str]),
    /// A filesystem path, taken verbatim.
    Path,
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

/// Worker thread count for [`crate::Checker::auto`].
pub static SLX_ENGINE_THREADS: Knob = Knob {
    name: "SLX_ENGINE_THREADS",
    kind: KnobKind::PositiveInt,
    default: "available parallelism",
    doc: "Worker threads for Checker::auto",
};

/// Visited-set shard count (see [`crate::Checker::with_shards`]).
pub static SLX_ENGINE_SHARDS: Knob = Knob {
    name: "SLX_ENGINE_SHARDS",
    kind: KnobKind::PositiveInt,
    default: "4 per thread, capped at 256",
    doc: "BFS visited-set shards (rounded up to a power of two)",
};

/// Frontier memory budget in bytes (see
/// [`crate::Checker::with_mem_budget`]); `0` pins spilling off.
pub static SLX_ENGINE_MEM_BUDGET: Knob = Knob {
    name: "SLX_ENGINE_MEM_BUDGET",
    kind: KnobKind::NonNegativeInt,
    default: "0 (spilling off)",
    doc: "Frontier memory budget in bytes; 0 disables spilling",
};

/// Directory spill files are created in (see
/// [`crate::Checker::with_spill_dir`]).
pub static SLX_ENGINE_SPILL_DIR: Knob = Knob {
    name: "SLX_ENGINE_SPILL_DIR",
    kind: KnobKind::Path,
    default: "system temp directory",
    doc: "Directory for spill chunk files (created if absent)",
};

/// Spill-chunk record encoding (see [`crate::Checker::with_spill_codec`]).
pub static SLX_ENGINE_SPILL_CODEC: Knob = Knob {
    name: "SLX_ENGINE_SPILL_CODEC",
    kind: KnobKind::Choice(&["delta", "plain", "replay"]),
    default: "delta",
    doc: "Spill-chunk record encoding",
};

/// Symmetry-reduction request (see [`crate::Checker::with_symmetry`]).
pub static SLX_ENGINE_SYMMETRY: Knob = Knob {
    name: "SLX_ENGINE_SYMMETRY",
    kind: KnobKind::Flag,
    default: "0 (off)",
    doc: "Dedup on canonical orbit digests when the space supports it",
};

/// Parks a served check once it passes this many BFS levels — the
/// check service's deterministic `kill -9` window for the CI crash probe.
pub static SLX_SERVER_STALL_AFTER: Knob = Knob {
    name: "SLX_SERVER_STALL_AFTER",
    kind: KnobKind::PositiveInt,
    default: "unset (never stall)",
    doc: "slx_server crash probe: park runs after this many levels",
};

/// Seeded fault-injection plan (see [`crate::FaultPlan`]); unset means
/// the fault plane is disarmed and every seam is a no-op.
pub static SLX_ENGINE_FAULT_PLAN: Knob = Knob {
    name: "SLX_ENGINE_FAULT_PLAN",
    kind: KnobKind::Text,
    default: "unset (fault injection off)",
    doc: "Seeded fault-injection plan: seed=N[,rate=R][,ops=a+b][,kinds=x+y]",
};

/// Every knob the workspace reads, in documentation order. `slx-analyze`
/// checks this list against both the code (no unregistered `SLX_*`
/// literal, no unreferenced entry) and the EXPERIMENTS.md knob table.
pub static REGISTRY: &[&Knob] = &[
    &SLX_ENGINE_THREADS,
    &SLX_ENGINE_SHARDS,
    &SLX_ENGINE_MEM_BUDGET,
    &SLX_ENGINE_SPILL_DIR,
    &SLX_ENGINE_SPILL_CODEC,
    &SLX_ENGINE_SYMMETRY,
    &SLX_ENGINE_FAULT_PLAN,
    &SLX_SERVER_STALL_AFTER,
];

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

    /// Parses an integer knob ([`KnobKind::PositiveInt`] or
    /// [`KnobKind::NonNegativeInt`]). `None` when unset or empty.
    ///
    /// # Panics
    ///
    /// Panics — naming the variable and the offending value — on
    /// anything that does not parse, and on `0` for a positive knob.
    #[must_use]
    pub fn usize_value(&self) -> Option<usize> {
        let allow_zero = match self.kind {
            KnobKind::PositiveInt => false,
            KnobKind::NonNegativeInt => true,
            other => panic!("{} is not an integer knob (kind {other:?})", self.name),
        };
        let text = self.raw()?;
        match text.parse::<usize>() {
            Ok(n) if n > 0 || allow_zero => Some(n),
            Ok(_) => panic!("{} must be a positive integer, got \"0\"", self.name),
            Err(_) => {
                let expected = if allow_zero {
                    "non-negative"
                } else {
                    "positive"
                };
                panic!(
                    "{} must be a {expected} decimal integer, got {text:?}",
                    self.name
                )
            }
        }
    }

    /// Parses a [`KnobKind::Flag`] knob. `None` when unset or empty.
    ///
    /// # Panics
    ///
    /// Panics on anything but `1`/`true`/`0`/`false`.
    #[must_use]
    pub fn flag_value(&self) -> Option<bool> {
        assert!(
            matches!(self.kind, KnobKind::Flag),
            "{} is not a flag knob",
            self.name
        );
        match self.raw()?.as_str() {
            "1" | "true" => Some(true),
            "0" | "false" => Some(false),
            other => panic!(
                "{} must be \"1\"/\"true\" or \"0\"/\"false\", got {other:?}",
                self.name
            ),
        }
    }

    /// Parses a [`KnobKind::Choice`] knob, returning the matched choice.
    /// `None` when unset or empty.
    ///
    /// # Panics
    ///
    /// Panics — naming every accepted value and the offender — on a
    /// value outside the choice set: the knob exists to pin comparison
    /// arms, and a typo silently meaning "default" would re-test the
    /// wrong one.
    #[must_use]
    pub fn choice_value(&self) -> Option<&'static str> {
        let KnobKind::Choice(choices) = self.kind else {
            panic!("{} is not a choice knob", self.name)
        };
        let text = self.raw()?;
        match choices.iter().find(|&&c| c == text) {
            Some(&choice) => Some(choice),
            None => {
                let mut rendered = String::new();
                for (i, choice) in choices.iter().enumerate() {
                    if i > 0 {
                        rendered.push_str(if i + 1 == choices.len() {
                            ", or "
                        } else {
                            ", "
                        });
                    }
                    rendered.push('"');
                    rendered.push_str(choice);
                    rendered.push('"');
                }
                panic!("{} must be {rendered}, got {text:?}", self.name)
            }
        }
    }

    /// Reads a [`KnobKind::Path`] knob verbatim. `None` when unset or
    /// empty.
    #[must_use]
    pub fn path_value(&self) -> Option<PathBuf> {
        assert!(
            matches!(self.kind, KnobKind::Path),
            "{} is not a path knob",
            self.name
        );
        // Paths tolerate non-UTF-8 on principle (the filesystem does),
        // so read the OS string directly instead of through `raw`.
        std::env::var_os(self.name)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
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
        assert!(std::panic::catch_unwind(|| SLX_ENGINE_SPILL_DIR.usize_value()).is_err());
        assert!(std::panic::catch_unwind(|| SLX_ENGINE_THREADS.flag_value()).is_err());
        assert!(std::panic::catch_unwind(|| SLX_ENGINE_THREADS.choice_value()).is_err());
        assert!(std::panic::catch_unwind(|| SLX_ENGINE_THREADS.path_value()).is_err());
        assert!(std::panic::catch_unwind(|| SLX_ENGINE_THREADS.text_value()).is_err());
        assert!(std::panic::catch_unwind(|| SLX_ENGINE_FAULT_PLAN.usize_value()).is_err());
    }

    // The accept/reject parsing contract itself (hard errors naming the
    // variable and the offender, empty-means-default, builder overrides)
    // is driven end to end by the process-isolated `spill_codec_knob`
    // suite: accessors read the live environment, which must not be
    // mutated from inside this concurrently-running test binary.
}
