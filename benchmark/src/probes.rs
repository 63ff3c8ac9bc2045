//! Layer probes: public functions of one layer, timed over a seeded sample
//! of the workload's own states. Each probe is a span; each result is the
//! median cost per call over a few passes of the sample.

use std::hash::Hash;
use std::hint::black_box;
use std::time::Instant;

use slx_core::automata::{Automaton, Execution};
use slx_core::consensus::ObstructionFreeConsensus;
use slx_core::engine::{
    digest128_of, Checker, DeltaCodec, DeltaCtx, Digest, Expansion, ShardedVisited, StateSpace,
};
use slx_core::explorer::{decidable_values_with, history_digest};
use slx_core::history::{Action, ProcessId};
use slx_core::memory::Process;
use slx_core::safety::{ConsensusSafety, SafetyProperty};
use slx_server::wire::{read_frame, write_frame};
use slx_server::{connect, Frame, ProgressFrame};

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{pinned_checker, OfSystem, SplitMix64, VALENCE_BUDGET};

/// States in a probe sample.
const SAMPLE: usize = 2000;
/// Digests in the visited-set probes.
const DIGESTS: usize = 1_000_000;
/// Passes over the sample per probe; the median pass is reported.
const PASSES: usize = 9;
/// Passes of the probes whose single pass already takes a tenth of a
/// second or more (a million digests, fifty kernel runs).
const LONG_PASSES: usize = 3;

/// Median nanoseconds per item over `passes` passes of `pass`, each of
/// which handles `items` items.
fn ns_per_item(passes: usize, items: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..passes)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

/// Runs one probe inside a span and files its result under `metric`.
fn probe(t: &mut Tracer, m: &mut Metrics, metric: &str, f: impl FnOnce() -> f64) {
    let value = t.span(&format!("probe.{metric}"), |_| (f(), Vec::new()));
    m.set(metric, value);
}

/// [`SAMPLE`] configurations reached from `initial` by random schedules of
/// length U[depth/2, depth] (shorter where the schedule runs out of
/// steppable processes).
pub fn sample_systems(
    initial: &OfSystem,
    active: &[ProcessId],
    depth: usize,
    rng: &mut SplitMix64,
) -> Vec<OfSystem> {
    (0..SAMPLE)
        .map(|_| {
            let mut sys = initial.clone();
            for _ in 0..rng.range(depth as u64 / 2, depth as u64) {
                let steppable: Vec<ProcessId> = active
                    .iter()
                    .copied()
                    .filter(|&p| sys.can_step(p))
                    .collect();
                if steppable.is_empty() {
                    break;
                }
                let p = steppable[rng.range(0, steppable.len() as u64 - 1) as usize];
                sys.step(p).expect("steppable process steps");
            }
            sys
        })
        .collect()
}

/// [`SAMPLE`] executions of `it` of length U[depth/2, depth], by random
/// walk over enabled actions.
pub fn sample_executions(
    it: &Automaton<Action>,
    depth: usize,
    rng: &mut SplitMix64,
) -> Vec<Execution<Action>> {
    let start = *it.init().iter().next().expect("an initial state");
    (0..SAMPLE)
        .map(|_| {
            let mut exec = Execution {
                states: vec![start],
                actions: Vec::new(),
            };
            for _ in 0..rng.range(depth as u64 / 2, depth as u64) {
                let enabled: Vec<Action> = it.enabled(exec.last_state()).into_iter().collect();
                if enabled.is_empty() {
                    break;
                }
                let action = enabled[rng.range(0, enabled.len() as u64 - 1) as usize];
                let targets = it.successors(exec.last_state(), &action);
                exec.states
                    .push(targets[rng.range(0, targets.len() as u64 - 1) as usize]);
                exec.actions.push(action);
            }
            exec
        })
        .collect()
}

/// `memory` clone, `engine.digest` and `engine.codec` over any state type
/// the kernel can hold. Delta records are encoded against the previous
/// state in sample order, the way a spill chunk chains them.
pub fn state_probes<S: Clone + Hash + DeltaCodec>(t: &mut Tracer, m: &mut Metrics, sample: &[S]) {
    let n = sample.len();
    probe(t, m, "memory.clone_ns", || {
        ns_per_item(PASSES, n, || {
            for s in sample {
                black_box(s.clone());
            }
        })
    });
    probe(t, m, "engine.digest.state_ns", || {
        ns_per_item(PASSES, n, || {
            for s in sample {
                black_box(digest128_of(s));
            }
        })
    });

    let mut plain: Vec<Vec<u8>> = Vec::new();
    probe(t, m, "engine.codec.encode_ns", || {
        ns_per_item(PASSES, n, || {
            plain = sample
                .iter()
                .map(|s| {
                    let mut out = Vec::new();
                    s.encode(&mut out);
                    out
                })
                .collect();
        })
    });
    probe(t, m, "engine.codec.decode_ns", || {
        ns_per_item(PASSES, n, || {
            for bytes in &plain {
                black_box(S::decode(&mut bytes.as_slice()).expect("round trip"));
            }
        })
    });
    let bytes = |records: &[Vec<u8>]| records.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    m.set("engine.codec.bytes_per_state", bytes(&plain));

    let mut delta: Vec<Vec<u8>> = Vec::new();
    probe(t, m, "engine.codec.delta_encode_ns", || {
        ns_per_item(PASSES, n, || {
            let mut prev = None;
            delta = sample
                .iter()
                .map(|s| {
                    let mut out = Vec::new();
                    s.encode_delta(prev, &mut out);
                    prev = Some(s);
                    out
                })
                .collect();
        })
    });
    probe(t, m, "engine.codec.delta_decode_ns", || {
        ns_per_item(PASSES, n, || {
            let mut ctx = DeltaCtx::new();
            let mut prev: Option<S> = None;
            for bytes in &delta {
                let s = S::decode_delta(prev.as_ref(), &mut bytes.as_slice(), &mut ctx)
                    .expect("delta round trip");
                prev = Some(s);
            }
            black_box(prev);
        })
    });
    m.set("engine.codec.delta_bytes_per_state", bytes(&delta));
}

/// `memory` step, `explorer`, `consensus` and `safety` over configurations.
pub fn system_probes(t: &mut Tracer, m: &mut Metrics, sample: &[OfSystem], active: &[ProcessId]) {
    let n = sample.len();
    probe(t, m, "memory.clone_step_ns", || {
        ns_per_item(PASSES, n, || {
            for s in sample {
                let mut next = s.clone();
                if let Some(&p) = active.iter().find(|&&p| next.can_step(p)) {
                    black_box(next.step(p).expect("steppable process steps"));
                }
                black_box(next);
            }
        })
    });
    probe(t, m, "explorer.history_digest_ns", || {
        ns_per_item(PASSES, n, || {
            for s in sample {
                black_box(history_digest(s.history()));
            }
        })
    });
    probe(t, m, "consensus.canonical_digest_ns", || {
        ns_per_item(PASSES, n, || {
            for s in sample {
                black_box(ObstructionFreeConsensus::canonical_system_digest(s));
            }
        })
    });
    let safety = ConsensusSafety::new();
    probe(t, m, "safety.allows_ns", || {
        ns_per_item(PASSES, n, || {
            for s in sample {
                black_box(safety.allows(s.history()));
            }
        })
    });
    // A valence query is a whole kernel run of up to several milliseconds.
    let queries = &sample[..n / 40];
    let checker = pinned_checker(1);
    probe(t, m, "explorer.valence_query_us", || {
        ns_per_item(LONG_PASSES, queries.len(), || {
            for s in queries {
                black_box(decidable_values_with(&checker, s, active, VALENCE_BUDGET));
            }
        }) / 1e3
    });
}

/// A space of one state and no transitions: what is left of `Checker::run`
/// when there is nothing to explore.
struct OneState;

impl StateSpace for OneState {
    type State = u8;
    type Finding = u8;

    fn digest(&self, state: &u8) -> Digest {
        digest128_of(state)
    }

    fn expand(&self, _state: &u8, _depth: usize, _ctx: &mut Expansion<Self>) {}
}

/// `engine.checker.empty_run_us` and `engine.visited.*`: the kernel's
/// fixed cost per run and the visited set's cost per digest, on
/// `checker`'s configuration.
pub fn engine_probes(t: &mut Tracer, m: &mut Metrics, checker: &Checker, rng: &mut SplitMix64) {
    probe(t, m, "engine.checker.empty_run_us", || {
        const RUNS: usize = 200;
        ns_per_item(PASSES, RUNS, || {
            for _ in 0..RUNS {
                black_box(checker.run(&OneState, vec![0u8]));
            }
        }) / 1e3
    });

    let digests: Vec<u128> = (0..DIGESTS)
        .map(|_| (u128::from(rng.next()) << 64) | u128::from(rng.next()))
        .collect();
    let mut set = ShardedVisited::new(8);
    probe(t, m, "engine.visited.insert_miss_ns", || {
        ns_per_item(LONG_PASSES, DIGESTS, || {
            set = ShardedVisited::new(8);
            for &d in &digests {
                black_box(set.insert(d));
            }
        })
    });
    probe(t, m, "engine.visited.insert_hit_ns", || {
        ns_per_item(LONG_PASSES, DIGESTS, || {
            for &d in &digests {
                black_box(set.insert(d));
            }
        })
    });
    let mut batches = vec![Vec::new(); set.shard_count()];
    for &d in &digests {
        batches[set.shard_of(d)].push(d);
    }
    probe(t, m, "engine.visited.batch_insert_ns", || {
        ns_per_item(LONG_PASSES, DIGESTS, || {
            let mut fresh = ShardedVisited::new(8);
            black_box(fresh.insert_batches(&batches, 1));
        })
    });
}

/// `server.wire.frame_roundtrip_ns` (a progress frame written to and read
/// back from a `Vec<u8>`) and `server.service.connect_ms`.
pub fn service_probes(t: &mut Tracer, m: &mut Metrics, addr: &str) {
    let frame = Frame::Progress(ProgressFrame {
        request_id: "serve-deep-12345-r3-0".into(),
        depth: 61,
        configs: 120_345,
        transitions: 204_112,
        dedup_hits: 83_768,
        peak_frontier: 4_410,
        elapsed_micros: 1_234_567,
        checkpoints_written: 30,
        resumed_from_depth: None,
    });
    probe(t, m, "server.wire.frame_roundtrip_ns", || {
        const FRAMES: usize = 20_000;
        let mut buf = Vec::new();
        ns_per_item(PASSES, FRAMES, || {
            for _ in 0..FRAMES {
                buf.clear();
                write_frame(&mut buf, &frame).expect("write to a Vec");
                let back = read_frame(&mut buf.as_slice()).expect("read back");
                black_box(back);
            }
        })
    });
    probe(t, m, "server.service.connect_ms", || {
        let samples: Vec<f64> = (0..PASSES)
            .map(|_| {
                let start = Instant::now();
                let conn = connect(addr).expect("connect to the workload's server");
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                drop(conn);
                elapsed
            })
            .collect();
        median(&samples)
    });
}
