//! The process-level version of Theorem 4.9's trivial implementation `It`.

use slx_history::Operation;
use slx_memory::{Memory, Process, StepEffect};

use crate::word::ConsWord;

/// The trivial implementation `It`: accepts any invocation and never
/// responds (it has no enabled steps at all, so every finite run of a
/// system composed of these processes is quiescent, hence fair).
///
/// Uses no base objects. Ensures every safety property that satisfies the
/// paper's standing assumptions, because its histories contain only
/// invocations and crashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TrivialNoResponse {
    _priv: (),
}

impl TrivialNoResponse {
    /// Creates the process.
    pub fn new() -> Self {
        TrivialNoResponse::default()
    }
}

impl Process<ConsWord> for TrivialNoResponse {
    fn on_invoke(&mut self, _op: Operation) {}

    fn has_step(&self) -> bool {
        false
    }

    fn step(&mut self, _mem: &mut Memory<ConsWord>) -> StepEffect {
        StepEffect::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{ProcessId, Value};
    use slx_memory::{RoundRobin, System};
    use slx_safety::{ConsensusSafety, SafetyProperty};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn propose(x: i64) -> Operation {
        Operation::Propose(Value::new(x))
    }

    #[test]
    fn trivial_never_responds_and_system_is_fair() {
        let mem: Memory<ConsWord> = Memory::new();
        let mut sys = System::new(mem, vec![TrivialNoResponse::new(); 2]);
        sys.invoke(p(0), propose(1)).unwrap();
        sys.invoke(p(1), propose(2)).unwrap();
        let stats = sys.run(&mut RoundRobin::new(), 100);
        assert_eq!(stats.responses, 0);
        assert!(sys.quiescent(), "no enabled steps: finite run is fair");
        assert!(ConsensusSafety::new().allows(sys.history()));
        assert!(sys.history().pending(p(0)) && sys.history().pending(p(1)));
    }
}
