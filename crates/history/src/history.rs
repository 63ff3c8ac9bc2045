//! Finite histories and their structural operations.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use slx_engine::Fold64;

use crate::action::{Action, Response};
use crate::calls::OpCall;
use crate::ids::ProcessId;

/// A finite history: the subsequence of an execution consisting only of
/// input and output actions (invocations, responses, crashes).
///
/// Histories are ordered lexicographically ([`Ord`]) so that finite sets of
/// histories can be stored in ordered collections; the order has no semantic
/// meaning.
///
/// # Examples
///
/// ```
/// use slx_history::{Action, History, Operation, ProcessId, Response, Value};
///
/// let p1 = ProcessId::new(0);
/// let mut h = History::new();
/// h.push(Action::invoke(p1, Operation::Propose(Value::new(3))));
/// h.push(Action::respond(p1, Response::Decided(Value::new(3))));
/// assert!(h.is_well_formed());
/// assert!(!h.pending(p1));
/// ```
///
/// A history carries the running fold of its [`History::digest64`], kept
/// up to date by every append, so a state key reads the history's digest
/// in O(1) instead of walking it. `Eq`, `Ord` and `Hash` see the actions
/// only.
#[derive(Clone, Default)]
pub struct History {
    actions: Vec<Action>,
    /// `slx_engine::digest64_of_iter` over `actions`, not yet finalized.
    fold: Fold64,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Creates an empty history with room for `capacity` actions: whoever
    /// knows the final length up front (a copy about to be appended to)
    /// pays one allocation and no reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        History {
            actions: Vec::with_capacity(capacity),
            fold: Fold64::new(),
        }
    }

    /// Creates a history from a sequence of actions.
    pub fn from_actions<I: IntoIterator<Item = Action>>(actions: I) -> Self {
        let actions: Vec<Action> = actions.into_iter().collect();
        let mut fold = Fold64::new();
        for (i, action) in actions.iter().enumerate() {
            fold_action(&mut fold, i, action);
        }
        History { actions, fold }
    }

    /// Appends an action.
    pub fn push(&mut self, action: Action) {
        fold_action(&mut self.fold, self.actions.len(), &action);
        self.actions.push(action);
    }

    /// The order-sensitive 64-bit digest of the whole history, equal to
    /// `slx_engine::digest64_of_iter(self.iter())`, read off the fold the
    /// appends keep.
    #[must_use]
    pub fn digest64(&self) -> u64 {
        self.fold.finish()
    }

    /// This history's actions under `other`'s digest. A history's digest
    /// always agrees with its actions; this is the test suites' handle for
    /// showing that a reader of [`History::digest64`] walks no action.
    #[doc(hidden)]
    #[must_use]
    pub fn with_fold_of(mut self, other: &History) -> History {
        self.fold = other.fold;
        self
    }

    /// Number of actions in the history.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if the history contains no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The actions of the history, in order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Iterates over the actions.
    pub fn iter(&self) -> std::slice::Iter<'_, Action> {
        self.actions.iter()
    }

    /// The per-process projection `h|pi`: the longest subsequence consisting
    /// only of actions of process `proc`.
    pub fn projection(&self, proc: ProcessId) -> History {
        History::from_actions(self.actions.iter().copied().filter(|a| a.proc() == proc))
    }

    /// The set of processes that appear in the history.
    pub fn participants(&self) -> Vec<ProcessId> {
        let mut seen: Vec<ProcessId> = Vec::new();
        for a in &self.actions {
            if !seen.contains(&a.proc()) {
                seen.push(a.proc());
            }
        }
        seen.sort();
        seen
    }

    /// Whether process `proc` is *pending* in the history: its projection
    /// ends with an invocation (Section 2).
    pub fn pending(&self, proc: ProcessId) -> bool {
        self.actions
            .iter()
            .rev()
            .find(|a| a.proc() == proc && !matches!(a, Action::Crash { .. }))
            .is_some_and(|a| matches!(a, Action::Invoke { .. }))
    }

    /// Whether process `proc` crashes in the history.
    pub fn crashed(&self, proc: ProcessId) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, Action::Crash { proc: q } if *q == proc))
    }

    /// Whether process `proc` is *correct* in the history: it does not crash.
    pub fn correct(&self, proc: ProcessId) -> bool {
        !self.crashed(proc)
    }

    /// Well-formedness (Section 2): for every process, the projection is an
    /// alternating sequence of invocations and responses starting with an
    /// invocation, and no non-crash action follows a crash.
    pub fn is_well_formed(&self) -> bool {
        let mut pending: std::collections::BTreeMap<ProcessId, bool> = Default::default();
        let mut crashed: std::collections::BTreeSet<ProcessId> = Default::default();
        for a in &self.actions {
            let p = a.proc();
            if crashed.contains(&p) {
                return false;
            }
            match a {
                Action::Invoke { .. } => {
                    if *pending.get(&p).unwrap_or(&false) {
                        return false;
                    }
                    pending.insert(p, true);
                }
                Action::Respond { .. } => {
                    if !pending.get(&p).unwrap_or(&false) {
                        return false;
                    }
                    pending.insert(p, false);
                }
                Action::Crash { .. } => {
                    crashed.insert(p);
                }
            }
        }
        true
    }

    /// The prefix consisting of the first `len` actions.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix(&self, len: usize) -> History {
        History::from_actions(self.actions[..len].iter().copied())
    }

    /// Iterates over all prefixes of the history, from the empty history to
    /// the history itself (`len + 1` prefixes).
    pub fn prefixes(&self) -> impl Iterator<Item = History> + '_ {
        (0..=self.actions.len()).map(move |k| self.prefix(k))
    }

    /// Whether `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &History) -> bool {
        other.actions.len() >= self.actions.len()
            && other.actions[..self.actions.len()] == self.actions[..]
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &History) -> History {
        let mut h = self.clone();
        h.extend(other.iter().copied());
        h
    }

    /// Matches invocations with their responses, in invocation order.
    ///
    /// Requires a well-formed history; on malformed histories the result is
    /// unspecified but does not panic.
    pub fn calls(&self) -> Vec<OpCall> {
        let mut calls: Vec<OpCall> = Vec::new();
        // Per-process index of the call awaiting a response.
        let mut open: std::collections::BTreeMap<ProcessId, usize> = Default::default();
        for (i, a) in self.actions.iter().enumerate() {
            match a {
                Action::Invoke { proc, op } => {
                    open.insert(*proc, calls.len());
                    calls.push(OpCall {
                        proc: *proc,
                        op: *op,
                        resp: None,
                        invoke_index: i,
                        respond_index: None,
                    });
                }
                Action::Respond { proc, resp } => {
                    if let Some(ci) = open.remove(proc) {
                        calls[ci].resp = Some(*resp);
                        calls[ci].respond_index = Some(i);
                    }
                }
                Action::Crash { .. } => {}
            }
        }
        calls
    }

    /// All responses received by `proc`, in order.
    pub fn responses_of(&self, proc: ProcessId) -> Vec<Response> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Respond { proc: q, resp } if *q == proc => Some(*resp),
                _ => None,
            })
            .collect()
    }

    /// Real-time precedence on completed calls: call `a` precedes call `b`
    /// if `a`'s response occurs before `b`'s invocation.
    pub fn precedes(&self, a: &OpCall, b: &OpCall) -> bool {
        match a.respond_index {
            Some(ra) => ra < b.invoke_index,
            None => false,
        }
    }

    /// Equivalence in the paper's sense: two histories are equivalent if
    /// every per-process projection agrees.
    pub fn equivalent(&self, other: &History, n: usize) -> bool {
        ProcessId::all(n).all(|p| self.projection(p) == other.projection(p))
    }
}

/// One step of `slx_engine::digest64_of_iter`: the index, then the item.
fn fold_action(fold: &mut Fold64, index: usize, action: &Action) {
    fold.write_usize(index);
    action.hash(fold);
}

impl PartialEq for History {
    fn eq(&self, other: &Self) -> bool {
        self.actions == other.actions
    }
}

impl Eq for History {}

impl PartialOrd for History {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for History {
    fn cmp(&self, other: &Self) -> Ordering {
        self.actions.cmp(&other.actions)
    }
}

impl Hash for History {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.actions.hash(state);
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("History")
            .field("actions", &self.actions)
            .finish()
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.actions.is_empty() {
            return write!(f, "ε");
        }
        let mut first = true;
        for a in &self.actions {
            if !first {
                write!(f, " · ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Action> for History {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        History::from_actions(iter)
    }
}

impl Extend<Action> for History {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.actions.reserve(iter.size_hint().0);
        for action in iter {
            self.push(action);
        }
    }
}

impl<'a> IntoIterator for &'a History {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Operation;
    use crate::calls::CallStatus;
    use crate::ids::{Value, VarId};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn v(x: i64) -> Value {
        Value::new(x)
    }

    /// `propose1(1) · propose2(2) · decided(1)@p1`
    fn sample() -> History {
        History::from_actions([
            Action::invoke(p(0), Operation::Propose(v(1))),
            Action::invoke(p(1), Operation::Propose(v(2))),
            Action::respond(p(0), Response::Decided(v(1))),
        ])
    }

    #[test]
    fn projection_keeps_only_own_actions() {
        let h = sample();
        let h1 = h.projection(p(0));
        assert_eq!(h1.len(), 2);
        assert!(h1.iter().all(|a| a.proc() == p(0)));
        assert_eq!(h.projection(p(2)).len(), 0);
    }

    #[test]
    fn pending_tracking() {
        let h = sample();
        assert!(!h.pending(p(0)));
        assert!(h.pending(p(1)));
        assert!(!h.pending(p(2)));
    }

    #[test]
    fn well_formedness_accepts_alternation() {
        assert!(sample().is_well_formed());
        assert!(History::new().is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_double_invoke() {
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::invoke(p(0), Operation::TxCommit),
        ]);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_orphan_response() {
        let h = History::from_actions([Action::respond(p(0), Response::Ok)]);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_action_after_crash() {
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::crash(p(0)),
            Action::respond(p(0), Response::Ok),
        ]);
        assert!(!h.is_well_formed());
        let ok = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::crash(p(0)),
        ]);
        assert!(ok.is_well_formed());
    }

    #[test]
    fn crash_and_correct() {
        let h = History::from_actions([Action::crash(p(1))]);
        assert!(h.crashed(p(1)));
        assert!(!h.correct(p(1)));
        assert!(h.correct(p(0)));
    }

    #[test]
    fn prefixes_enumerate_all() {
        let h = sample();
        let ps: Vec<History> = h.prefixes().collect();
        assert_eq!(ps.len(), 4);
        assert!(ps[0].is_empty());
        assert_eq!(ps[3], h);
        for w in ps.windows(2) {
            assert!(w[0].is_prefix_of(&w[1]));
        }
        assert!(!h.is_prefix_of(&ps[1]));
    }

    #[test]
    fn concat_appends() {
        let a = History::from_actions([Action::invoke(p(0), Operation::TxStart)]);
        let b = History::from_actions([Action::respond(p(0), Response::Ok)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert!(a.is_prefix_of(&c));
    }

    #[test]
    fn calls_match_invocations_to_responses() {
        let h = sample();
        let calls = h.calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].resp, Some(Response::Decided(v(1))));
        assert_eq!(calls[0].status(), CallStatus::Completed);
        assert_eq!(calls[1].resp, None);
        assert_eq!(calls[1].status(), CallStatus::Pending);
    }

    #[test]
    fn precedes_uses_real_time() {
        let h = History::from_actions([
            Action::invoke(p(0), Operation::Write(VarId::new(0), v(1))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(1), Operation::Read(VarId::new(0))),
            Action::respond(p(1), Response::ValueReturned(v(1))),
        ]);
        let calls = h.calls();
        assert!(h.precedes(&calls[0], &calls[1]));
        assert!(!h.precedes(&calls[1], &calls[0]));
    }

    #[test]
    fn equivalence_compares_projections() {
        let h1 = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::respond(p(1), Response::Ok),
        ]);
        let h2 = History::from_actions([
            Action::invoke(p(1), Operation::TxStart),
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::respond(p(0), Response::Ok),
        ]);
        assert!(h1.equivalent(&h2, 2));
        assert!(!h1.equivalent(&sample(), 2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(History::new().to_string(), "ε");
        let h = History::from_actions([Action::invoke(p(0), Operation::TxCommit)]);
        assert_eq!(h.to_string(), "tryC()@p1");
    }

    #[test]
    fn responses_of() {
        let h = sample();
        assert_eq!(h.responses_of(p(0)), vec![Response::Decided(v(1))]);
        assert!(h.responses_of(p(1)).is_empty());
    }

    #[test]
    fn participants_sorted_unique() {
        let h = sample();
        assert_eq!(h.participants(), vec![p(0), p(1)]);
    }
}
