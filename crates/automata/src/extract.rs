//! A simulated system's reachable configurations, one state per key: the
//! implementation's automaton, extracted.

use std::fmt;
use std::hash::Hash;

use slx_engine::DetHashMap;
use slx_history::{ProcessId, Response};
use slx_memory::{Process, StepEffect, System, Word};

use crate::automaton::{Automaton, StateId};

/// The most states [`extract`] holds. A key that does not close stops
/// here with [`NotClosed`] instead of exhausting memory.
pub const MAX_STATES: usize = 1 << 17;

/// A transition of an extracted automaton: one computation step of a
/// process, named by the response it produced, or `τ_p` if none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Step {
    /// `p`'s step produced `resp` (an output action).
    Responded(ProcessId, Response),
    /// `p`'s step produced no response (the internal action `τ_p`).
    Tau(ProcessId),
}

impl Step {
    /// The process that stepped.
    pub fn proc(self) -> ProcessId {
        match self {
            Step::Responded(p, _) | Step::Tau(p) => p,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Responded(p, resp) => write!(f, "{p} responds {resp}"),
            Step::Tau(p) => write!(f, "τ_{p}"),
        }
    }
}

/// An extracted automaton, one representative configuration per state,
/// and each state's key.
#[derive(Debug, Clone)]
pub struct Extraction<W: Word, P, K> {
    /// The states are the distinct keys, numbered in BFS order from the
    /// initial configuration's, `s0`.
    pub automaton: Automaton<Step>,
    /// `states[i]` is the first configuration reached with state `i`'s key.
    pub states: Vec<System<W, P>>,
    /// The state of each distinct key: `ids[&key(&states[i])]` is `StateId(i)`.
    pub ids: DetHashMap<K, StateId>,
}

/// [`extract`] reached [`MAX_STATES`] distinct keys without a fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotClosed {
    /// The distinct keys held when it stopped.
    pub states: usize,
}

/// The automaton of `initial` under every schedule of the `active`
/// processes, to fixpoint: a breadth-first search that steps each active
/// process of each state's representative and merges configurations with
/// equal `key`s. Keys are compared exactly, never fingerprinted.
///
/// The result is the implementation's automaton up to the quotient `key`
/// draws, which is sound when equal keys have equal futures: the same
/// processes can step, and each step produces the same response and
/// successor key. No invocation or crash is taken.
///
/// # Errors
///
/// [`NotClosed`] once [`MAX_STATES`] keys are held and a new one appears.
///
/// # Panics
///
/// Panics if a steppable process's step fails.
pub fn extract<W, P, K>(
    initial: &System<W, P>,
    active: &[ProcessId],
    key: impl Fn(&System<W, P>) -> K,
) -> Result<Extraction<W, P, K>, NotClosed>
where
    W: Word,
    P: Process<W> + Clone,
    K: Hash + Eq,
{
    let mut ids: DetHashMap<K, StateId> = DetHashMap::default();
    ids.insert(key(initial), StateId(0));
    let mut states = vec![initial.clone()];
    let mut edges = Vec::new();
    let mut next = 0;
    while next < states.len() {
        for &p in active {
            if !states[next].can_step(p) {
                continue;
            }
            let mut succ = states[next].clone();
            let step = match succ.step(p).expect("a steppable process steps") {
                StepEffect::Responded(resp) => Step::Responded(p, resp),
                StepEffect::Ran | StepEffect::Idle => Step::Tau(p),
            };
            let fresh = StateId(states.len());
            let to = *ids.entry(key(&succ)).or_insert(fresh);
            if to == fresh {
                if states.len() == MAX_STATES {
                    return Err(NotClosed { states: MAX_STATES });
                }
                states.push(succ);
            }
            edges.push((StateId(next), step, to));
        }
        next += 1;
    }
    let (outputs, internals): (Vec<Step>, Vec<Step>) = edges
        .iter()
        .map(|&(_, step, _)| step)
        .partition(|step| matches!(step, Step::Responded(..)));
    let mut automaton = Automaton::new(
        "extracted",
        states.len(),
        [StateId(0)],
        [],
        outputs,
        internals,
    );
    for (from, step, to) in edges {
        automaton.add_transition(from, step, to);
    }
    Ok(Extraction {
        automaton,
        states,
        ids,
    })
}
