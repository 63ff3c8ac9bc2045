//! Actions: invocations, responses and crash events.

use std::fmt;

use crate::ids::{ProcessId, Value, VarId};

/// An invocation on a shared object, i.e. an element of the set `Inv` of the
/// object type `Tp = (St, Inv, Res, Seq)`.
///
/// One enum covers every object type the paper instantiates its results on;
/// a given history normally uses operations of a single object type, and the
/// safety checkers reject mixed histories where the mix is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// Consensus: propose a value and wait for the decided value.
    Propose(Value),
    /// Register: read variable.
    Read(VarId),
    /// Register: write a value to a variable.
    Write(VarId, Value),
    /// Test-and-set: atomically set the bit, returning its previous value.
    TestAndSet,
    /// Compare-and-swap: if the object holds `expected`, replace it with
    /// `new` and return `true`; otherwise return `false`.
    CompareAndSwap {
        /// Value the object must currently hold for the swap to happen.
        expected: Value,
        /// Replacement value.
        new: Value,
    },
    /// Fetch-and-add: atomically add a delta, returning the previous value.
    FetchAdd(Value),
    /// Transactional memory: request to start a new transaction (`start()`).
    TxStart,
    /// Transactional memory: read a transactional variable (`x.read()`).
    TxRead(VarId),
    /// Transactional memory: write a transactional variable (`x.write(v)`).
    TxWrite(VarId, Value),
    /// Transactional memory: request to commit (`tryC()`).
    TxCommit,
}

impl Operation {
    /// Returns `true` for transactional-memory operations.
    pub fn is_transactional(&self) -> bool {
        matches!(
            self,
            Operation::TxStart
                | Operation::TxRead(_)
                | Operation::TxWrite(_, _)
                | Operation::TxCommit
        )
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Propose(v) => write!(f, "propose({v})"),
            Operation::Read(x) => write!(f, "{x}.read()"),
            Operation::Write(x, v) => write!(f, "{x}.write({v})"),
            Operation::TestAndSet => write!(f, "test-and-set()"),
            Operation::CompareAndSwap { expected, new } => {
                write!(f, "cas({expected},{new})")
            }
            Operation::FetchAdd(v) => write!(f, "fetch-add({v})"),
            Operation::TxStart => write!(f, "start()"),
            Operation::TxRead(x) => write!(f, "{x}.read()"),
            Operation::TxWrite(x, v) => write!(f, "{x}.write({v})"),
            Operation::TxCommit => write!(f, "tryC()"),
        }
    }
}

/// A response from a shared object, i.e. an element of the set `Res`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Response {
    /// Consensus: the decided value.
    Decided(Value),
    /// A value returned by a read, fetch-add, or transactional read.
    ValueReturned(Value),
    /// Generic acknowledgement (`ok`), for writes and successful
    /// transactional starts/writes.
    Ok,
    /// Boolean result of test-and-set or compare-and-swap.
    Flag(bool),
    /// Transactional memory: commit event `C`.
    Committed,
    /// Transactional memory: abort event `A`.
    Aborted,
}

impl Response {
    /// Returns `true` for the TM commit event `C`.
    pub fn is_commit(&self) -> bool {
        matches!(self, Response::Committed)
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Decided(v) => write!(f, "decided({v})"),
            Response::ValueReturned(v) => write!(f, "{v}"),
            Response::Ok => write!(f, "ok"),
            Response::Flag(b) => write!(f, "{b}"),
            Response::Committed => write!(f, "C"),
            Response::Aborted => write!(f, "A"),
        }
    }
}

/// The kind of an [`Action`], without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionKind {
    /// An invocation (input action of the implementation automaton).
    Invoke,
    /// A response (output action of the implementation automaton).
    Respond,
    /// A crash event `crash_i`.
    Crash,
}

/// One element of `ext(Tp)`: an invocation `inv_i`, a response `res_i`, or a
/// crash `crash_i`, tagged with the process it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Process `proc` invokes `op`.
    Invoke {
        /// Invoking process.
        proc: ProcessId,
        /// The invocation.
        op: Operation,
    },
    /// Process `proc` receives response `resp`.
    Respond {
        /// Responding process.
        proc: ProcessId,
        /// The response.
        resp: Response,
    },
    /// Process `proc` crashes and takes no further steps.
    Crash {
        /// Crashing process.
        proc: ProcessId,
    },
}

impl Action {
    /// Convenience constructor for an invocation action.
    pub const fn invoke(proc: ProcessId, op: Operation) -> Self {
        Action::Invoke { proc, op }
    }

    /// Convenience constructor for a response action.
    pub const fn respond(proc: ProcessId, resp: Response) -> Self {
        Action::Respond { proc, resp }
    }

    /// Convenience constructor for a crash action.
    pub const fn crash(proc: ProcessId) -> Self {
        Action::Crash { proc }
    }

    /// The process the action belongs to.
    pub const fn proc(&self) -> ProcessId {
        match self {
            Action::Invoke { proc, .. } | Action::Respond { proc, .. } | Action::Crash { proc } => {
                *proc
            }
        }
    }

    /// The kind of the action.
    pub const fn kind(&self) -> ActionKind {
        match self {
            Action::Invoke { .. } => ActionKind::Invoke,
            Action::Respond { .. } => ActionKind::Respond,
            Action::Crash { .. } => ActionKind::Crash,
        }
    }

    /// Returns the invocation payload, if this is an invocation.
    pub const fn as_invoke(&self) -> Option<Operation> {
        match self {
            Action::Invoke { op, .. } => Some(*op),
            _ => None,
        }
    }

    /// Returns the response payload, if this is a response.
    pub const fn as_respond(&self) -> Option<Response> {
        match self {
            Action::Respond { resp, .. } => Some(*resp),
            _ => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Invoke { proc, op } => write!(f, "{op}@{proc}"),
            Action::Respond { proc, resp } => write!(f, "{resp}@{proc}"),
            Action::Crash { proc } => write!(f, "crash@{proc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn operation_classification() {
        assert!(Operation::TxStart.is_transactional());
        assert!(Operation::TxRead(VarId::new(0)).is_transactional());
        assert!(Operation::TxWrite(VarId::new(0), Value::new(1)).is_transactional());
        assert!(Operation::TxCommit.is_transactional());
        assert!(!Operation::Propose(Value::new(0)).is_transactional());
    }

    #[test]
    fn response_classification() {
        assert!(!Response::Aborted.is_commit());
        assert!(Response::Committed.is_commit());
    }

    #[test]
    fn action_accessors() {
        let a = Action::invoke(p(1), Operation::TxStart);
        assert_eq!(a.proc(), p(1));
        assert_eq!(a.kind(), ActionKind::Invoke);
        assert_eq!(a.as_invoke(), Some(Operation::TxStart));
        assert_eq!(a.as_respond(), None);

        let r = Action::respond(p(0), Response::Committed);
        assert_eq!(r.kind(), ActionKind::Respond);
        assert_eq!(r.as_respond(), Some(Response::Committed));
        assert_eq!(r.as_invoke(), None);

        let c = Action::crash(p(2));
        assert_eq!(c.kind(), ActionKind::Crash);
        assert_eq!(c.proc(), p(2));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            Action::invoke(p(0), Operation::Propose(Value::new(5))).to_string(),
            "propose(5)@p1"
        );
        assert_eq!(Action::respond(p(1), Response::Aborted).to_string(), "A@p2");
        assert_eq!(Operation::TxCommit.to_string(), "tryC()");
    }
}
