//! Named check scenarios the service can run.
//!
//! A request names a scenario; the server builds the checker (knobs,
//! checkpointing, resume) and hands it to the scenario, which owns the
//! state space and the property. The built-ins cover the two shapes the
//! workspace cares about:
//!
//! - `grid` — the transpose grid walk the crash/resume differential
//!   suites use: `depth` is the grid bound, the far corner is a finding,
//!   so the verdict is deterministically "violated" with exactly one
//!   finding and exactly `(depth+1)^2` configs. A fast, predictable
//!   smoke target.
//! - `of-consensus-safety` — the Figure 1a anchor: obstruction-free
//!   consensus (two proposers, inputs 1 and 2) checked for consensus
//!   safety to `depth` schedule steps.
//!
//! Tests register extra scenarios (e.g. deliberately slow spaces for
//! cancellation coverage) through [`ScenarioRegistry::register`].

use std::sync::Arc;

use slx_core::consensus::ObstructionFreeConsensus;
use slx_core::explorer::{explore_safety_observed, history_digest};
use slx_core::history::ProcessId;
use slx_core::safety::ConsensusSafety;
use slx_engine::{Checker, DetHashMap, Digest, Expansion, ExploreStats, StateSpace};

use crate::wire::CheckRequest;

/// Outcome of one scenario run, scenario-agnostic.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Whether the property held everywhere explored.
    pub holds: bool,
    /// Number of violating findings.
    pub findings: usize,
    /// The kernel statistics (lifetime counters).
    pub stats: ExploreStats,
}

/// A runnable check. `progress` receives `(depth, lifetime stats)` at
/// every BFS level boundary and cancels the run by returning `false`
/// (see `Checker::run_observed`); implementations must thread it through
/// to the kernel or cancellation and streaming both silently break.
pub trait Scenario: Send + Sync {
    /// Runs the check on the prepared `checker`.
    fn run(
        &self,
        req: &CheckRequest,
        checker: Checker,
        progress: &mut dyn FnMut(usize, &ExploreStats) -> bool,
    ) -> ScenarioRun;
}

/// Name → scenario lookup, seeded with the built-ins.
pub struct ScenarioRegistry {
    map: DetHashMap<String, Arc<dyn Scenario>>,
}

impl ScenarioRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        ScenarioRegistry {
            map: DetHashMap::default(),
        }
    }

    /// The built-in scenarios: `grid` and `of-consensus-safety`.
    #[must_use]
    pub fn builtin() -> Self {
        let mut reg = ScenarioRegistry::empty();
        reg.register("grid", Arc::new(GridScenario));
        reg.register("of-consensus-safety", Arc::new(OfConsensusSafety));
        reg
    }

    /// Registers (or replaces) a scenario under `name`.
    pub fn register(&mut self, name: &str, scenario: Arc<dyn Scenario>) {
        self.map.insert(name.to_string(), scenario);
    }

    /// Looks a scenario up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<dyn Scenario>> {
        self.map.get(name).cloned()
    }

    /// Registered names, sorted (for error messages).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.map.keys().cloned().collect();
        names.sort();
        names
    }
}

/// The transpose grid walk: `(x, y)` with moves `+x`/`+y` up to
/// `req.depth`, a finding at the far corner.
struct GridScenario;

struct GridSpace {
    bound: u32,
}

impl StateSpace for GridSpace {
    type State = (u32, u32);
    type Finding = (u32, u32);

    fn digest(&self, state: &Self::State) -> Digest {
        slx_engine::digest128_of(state)
    }

    fn expand(&self, &(x, y): &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
        if x == self.bound && y == self.bound {
            ctx.finding((x, y));
            return;
        }
        if x < self.bound {
            ctx.push((x + 1, y));
        }
        if y < self.bound {
            ctx.push((x, y + 1));
        }
    }
}

impl Scenario for GridScenario {
    fn run(
        &self,
        req: &CheckRequest,
        checker: Checker,
        progress: &mut dyn FnMut(usize, &ExploreStats) -> bool,
    ) -> ScenarioRun {
        let space = GridSpace {
            bound: u32::try_from(req.depth).unwrap_or(u32::MAX),
        };
        let out = checker.run_observed(&space, vec![(0u32, 0u32)], |_| false, progress);
        ScenarioRun {
            holds: out.findings.is_empty(),
            findings: out.findings.len(),
            stats: out.stats,
        }
    }
}

/// The Figure 1a anchor workload (two proposers, inputs 1 and 2) under
/// consensus safety.
struct OfConsensusSafety;

impl Scenario for OfConsensusSafety {
    fn run(
        &self,
        req: &CheckRequest,
        checker: Checker,
        progress: &mut dyn FnMut(usize, &ExploreStats) -> bool,
    ) -> ScenarioRun {
        let sys = ObstructionFreeConsensus::proposers(&[1, 2], 16);
        let active = [ProcessId::new(0), ProcessId::new(1)];
        let safety = ConsensusSafety::new();
        let depth = usize::try_from(req.depth).unwrap_or(usize::MAX);
        let out = explore_safety_observed(
            &checker,
            &sys,
            &active,
            depth,
            &safety,
            history_digest,
            progress,
        );
        ScenarioRun {
            holds: out.holds(),
            findings: out.violations.len(),
            stats: out.stats,
        }
    }
}
