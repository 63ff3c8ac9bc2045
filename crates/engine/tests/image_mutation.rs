//! Seeded mutation of a committed checkpoint image.
//!
//! The image is a real one: an obstruction-free-consensus exploration
//! (n = 2, registers off base 0) stopped at a level boundary past the
//! first decisions, so its frontier and findings carry `System` records
//! with layouts, register runs and mid-round commit-adopt sub-machines. Every mutant — bit
//! flips, byte splices (random bytes, and maximal varints where a length
//! may sit), truncation at every byte, which covers every section
//! boundary — is presented to [`Checker::resume`] in two arms:
//!
//! - **unsealed** (the trailing checksum is left alone): always
//!   [`EngineError::CheckpointCorrupt`], nothing is decoded;
//! - **resealed** (the checksum is recomputed, as a hostile or buggy
//!   writer would): a typed checkpoint error, or a clean `Ok` when the
//!   mutant happens to be another well-formed image — never a panic. An
//!   unbounded reservation for a corrupt length prefix would surface
//!   here as a capacity-overflow panic or an allocation abort.
//!
//! The visited log the image names gets a third arm: bit flips, splices
//! and truncations inside its committed prefix are always
//! [`EngineError::CheckpointCorrupt`] (its checksum sits in the image,
//! out of the mutator's reach), and bytes appended past the committed
//! length are a torn tail that resumes cleanly, bit-identically.
//!
//! The resumed run is cancelled at its first level boundary: this suite
//! is about what loading does, not about exploring from states nobody
//! reached.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use slx_consensus::{ConsWord, ObstructionFreeConsensus};
use slx_engine::{
    Checker, CheckpointStore, Digest, EngineError, Expansion, Fingerprinter, KernelOutcome,
    StateSpace,
};
use slx_memory::System;

mod common;
use common::{off_base_proposers, Rng};

type OfSystem = System<ConsWord, ObstructionFreeConsensus>;

/// Every interleaving; a configuration in which somebody decided is a
/// finding, so the findings section holds `System` records too.
struct OfSpace;

impl StateSpace for OfSpace {
    type State = OfSystem;
    type Finding = OfSystem;

    fn digest(&self, state: &OfSystem) -> Digest {
        state.digest128()
    }

    fn expand(&self, state: &OfSystem, _depth: usize, ctx: &mut Expansion<Self>) {
        let steppable = state.steppable();
        if steppable.len() < state.n() {
            ctx.finding(state.clone());
        }
        for q in steppable {
            let mut next = state.clone();
            next.step(q).expect("steppable process steps");
            ctx.push(next);
        }
    }
}

fn checker() -> Checker {
    Checker::parallel_bfs(1)
        .with_shards(4)
        .with_symmetry(false)
        .with_mem_budget(0)
}

fn initial() -> Vec<OfSystem> {
    vec![off_base_proposers(&[1, 2], 2)]
}

/// Resumes from whatever `dir` holds and stops at the first boundary.
fn load(dir: &Path) -> Result<KernelOutcome<OfSystem>, EngineError> {
    checker()
        .resume(dir)
        .try_run_observed(&OfSpace, initial(), |_| false, |_, _| false)
}

/// The one visited log in `dir`.
fn log_path(dir: &Path) -> PathBuf {
    let logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .collect();
    assert_eq!(logs.len(), 1, "one log beside the image: {logs:?}");
    logs.into_iter().next().expect("one log")
}

fn reseal(body: &[u8]) -> Vec<u8> {
    let mut fp = Fingerprinter::new();
    fp.write(body);
    let mut image = body.to_vec();
    image.extend_from_slice(&fp.digest().0.to_le_bytes());
    image
}

/// Presents one mutant of the image body to both arms.
fn present(dir: &Path, image: &[u8], body: &[u8], label: &str) {
    let file = CheckpointStore::file_path(dir);
    let mut unsealed = body.to_vec();
    unsealed.extend_from_slice(&image[image.len() - 16..]);
    for (resealed, mutant) in [(false, unsealed), (true, reseal(body))] {
        if mutant == image {
            continue;
        }
        std::fs::write(&file, &mutant).expect("mutant written");
        let outcome = std::panic::catch_unwind(|| load(dir)).unwrap_or_else(|_| {
            panic!("{label} (resealed: {resealed}): loading the mutant panicked")
        });
        let acceptable = match &outcome {
            Err(EngineError::CheckpointCorrupt { .. }) => true,
            Ok(_)
            | Err(
                EngineError::CheckpointVersion { .. }
                | EngineError::CheckpointConfigMismatch { .. },
            ) => resealed,
            Err(_) => false,
        };
        assert!(
            acceptable,
            "{label} (resealed: {resealed}): got {:?}",
            outcome.map(|outcome| outcome.stats)
        );
    }
}

#[test]
fn mutated_images_are_refused_or_well_formed_never_a_panic() {
    let dir = std::env::temp_dir().join(format!("slx-image-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test checkpoint dir");

    // Commit at every level and stop at level 10: a solo runner decides
    // in eight steps, and the image is small enough to mutate at every
    // byte.
    let reference = checker()
        .with_checkpoint(&dir, 1)
        .try_run_observed(&OfSpace, initial(), |_| false, |depth, _| depth < 10)
        .expect("the reference run commits its images");
    assert!(!reference.findings.is_empty());
    let image = std::fs::read(CheckpointStore::file_path(&dir)).expect("committed image");
    let body = &image[..image.len() - 16];
    let pristine = load(&dir).expect("the committed image loads");
    assert_eq!(pristine.stats.resumed_from_depth, Some(10));
    assert_eq!(pristine.findings, reference.findings);

    for cut in 0..body.len() {
        present(
            &dir,
            &image,
            &body[..cut],
            &format!("truncated to {cut} bytes"),
        );
    }

    let mut rng = Rng(0x1AA6_E5EED);
    let at = |rng: &mut Rng| rng.below(body.len() as u64) as usize;
    for case in 0..1500 {
        let mut mutant = body.to_vec();
        let offset = at(&mut rng);
        mutant[offset] ^= 1 << rng.below(8);
        present(
            &dir,
            &image,
            &mutant,
            &format!("flip {case} at byte {offset}"),
        );
    }
    for case in 0..1500 {
        let (start, len) = (at(&mut rng), rng.below(9) as usize);
        let end = (start + len).min(body.len());
        let patch: Vec<u8> = match case % 3 {
            // Same-length noise, an insertion or deletion, or the largest
            // varints a length prefix could claim.
            0 => (start..end).map(|_| rng.next() as u8).collect(),
            1 => (0..rng.below(9)).map(|_| rng.next() as u8).collect(),
            _ if case % 2 == 0 => vec![0xff, 0xff, 0xff, 0xff, 0x0f],
            _ => vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
        };
        let mutant = [&body[..start], &patch, &body[end..]].concat();
        present(
            &dir,
            &image,
            &mutant,
            &format!("splice {case} at {start}..{end}"),
        );
    }
    std::fs::write(CheckpointStore::file_path(&dir), &image).expect("image restored");
    mutate_the_log(&dir, &image, &reference);
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

/// The log arm, over the pristine image in `dir`: every mutant inside
/// the committed prefix is refused, and a torn tail past it resumes to
/// the uninterrupted run.
fn mutate_the_log(dir: &Path, image: &[u8], reference: &KernelOutcome<OfSystem>) {
    let path = log_path(dir);
    let log = std::fs::read(&path).expect("committed log");
    let refused = |mutant: &[u8], label: &str| {
        if mutant == log.as_slice() {
            return;
        }
        std::fs::write(&path, mutant).expect("mutant written");
        let outcome = std::panic::catch_unwind(|| load(dir))
            .unwrap_or_else(|_| panic!("log {label}: loading the mutant panicked"));
        assert!(
            matches!(outcome, Err(EngineError::CheckpointCorrupt { .. })),
            "log {label}: got {:?}",
            outcome.map(|outcome| outcome.stats)
        );
    };
    for cut in 0..log.len() {
        refused(&log[..cut], &format!("truncated to {cut} bytes"));
    }
    let mut rng = Rng(0x106_7A11);
    let at = |rng: &mut Rng| rng.below(log.len() as u64) as usize;
    for case in 0..500 {
        let mut mutant = log.clone();
        let offset = at(&mut rng);
        mutant[offset] ^= 1 << rng.below(8);
        refused(&mutant, &format!("flip {case} at byte {offset}"));
    }
    for case in 0..500 {
        let (start, len) = (at(&mut rng), rng.below(33) as usize);
        let end = (start + len).min(log.len());
        // Same-length noise, or an insertion or deletion.
        let patch: Vec<u8> = if case % 2 == 0 {
            (start..end).map(|_| rng.next() as u8).collect()
        } else {
            (0..rng.below(33)).map(|_| rng.next() as u8).collect()
        };
        let mutant = [&log[..start], &patch, &log[end..]].concat();
        refused(&mutant, &format!("splice {case} at {start}..{end}"));
    }

    // A torn tail: anything past the committed length, as a kill between
    // a log sync and its image's rename leaves it. The resumed run must
    // reach what the uninterrupted one reaches, and its first commit
    // must cut the tail before appending.
    let uninterrupted = checker()
        .try_run_observed(&OfSpace, initial(), |_| false, |depth, _| depth < 13)
        .expect("the uninterrupted run");
    for tail in [1usize, 16, 17, 1000] {
        let mut torn = log.clone();
        torn.extend((0..tail).map(|_| rng.next() as u8));
        std::fs::write(&path, &torn).expect("torn tail written");
        assert_eq!(
            load(dir).expect("a torn tail loads").findings,
            reference.findings
        );
        let resumed = checker()
            .resume(dir)
            .try_run_observed(&OfSpace, initial(), |_| false, |depth, _| depth < 13)
            .unwrap_or_else(|err| panic!("tail {tail}: {err}"));
        assert_eq!(resumed.findings, uninterrupted.findings, "tail {tail}");
        let counts = |stats: &slx_engine::ExploreStats| {
            (
                stats.configs,
                stats.transitions,
                stats.dedup_hits,
                stats.peak_frontier,
                stats.shard_occupancy.clone(),
            )
        };
        assert_eq!(
            counts(&resumed.stats),
            counts(&uninterrupted.stats),
            "tail {tail}"
        );
        let occupied: usize = resumed.stats.shard_occupancy.iter().sum();
        let grown = std::fs::read(&path).expect("the resumed run's log");
        assert_eq!(grown.len(), 16 * occupied, "tail {tail}: the tail was cut");
        assert_eq!(&grown[..log.len()], log.as_slice(), "tail {tail}");
        // Back to the store the next tail is appended to.
        std::fs::write(&path, &log).expect("log restored");
        std::fs::write(CheckpointStore::file_path(dir), image).expect("image restored");
    }
}
