//! Deterministic fault injection for every fallible kernel surface —
//! and the typed error the hardened paths surface instead of panicking.
//!
//! The checker's robustness story before this module: every spill,
//! checkpoint, and socket error was an immediate panic. The paper this
//! workspace reproduces is about what systems can guarantee *under
//! failures*, so the kernel now carries a [`FaultPlane`]: a seam at
//! every fallible I/O call that can inject ENOSPC, EINTR, short and
//! torn writes, connection resets, and stalls from a **SplitMix64-seeded
//! schedule**. The schedule is a pure function of the plan's seed and a
//! per-operation counter — no wall clock, no RNG state shared with
//! anything else — so a faulted run is reproducible from its plan
//! alone, and the PR 2–9 differential discipline extends to
//! failure testing: *a faulted run either produces a verdict
//! bit-identical to the fault-free run, or fails with a typed
//! [`EngineError`]* — never a panic, never a torn image, never a leaked
//! spill file.
//!
//! # Selecting a plan
//!
//! A plan is built with [`FaultPlan::seeded`] and narrowed with
//! [`FaultPlan::with_rate`], [`FaultPlan::with_ops`] and
//! [`FaultPlan::with_kinds`], then handed to
//! [`crate::Checker::with_fault_plan`] (or to the check service's
//! `ServerConfig::fault_plan`, which arms its sockets and every request's
//! checker):
//!
//! ```
//! use slx_engine::{FaultKind, FaultOp, FaultPlan};
//! let _plan = FaultPlan::seeded(7)
//!     .with_rate(64) // ~64/1024 of targeted ops fault
//!     .with_ops(&[FaultOp::SpillWrite, FaultOp::CkptRename])
//!     .with_kinds(&[FaultKind::Enospc, FaultKind::Eintr]);
//! ```
//!
//! No plan (the default) compiles the whole plane down to one inline
//! `Option` check per seam — the fault-free hot path pays nothing, which
//! the `fault_overhead` example pins at ≤ 1.02x.
//!
//! # What the kernel does with an injected fault
//!
//! - **EINTR / short writes** are transient: the hardened call sites
//!   retry up to [`IO_ATTEMPTS`] times on a fixed backoff schedule
//!   (deterministic — no wall clock in the decision path), counting each
//!   retry into `ExploreStats::io_retries`.
//! - **ENOSPC on the spill directory** degrades gracefully: the level
//!   finishes resident (no further chunks are flushed) up to a hard cap
//!   of [`DEGRADED_CAP_CHUNKS`] chunk budgets, then fails with
//!   [`EngineError::SpillExhausted`] naming the path and budget.
//! - **Torn checkpoint writes** land on the `.tmp` staging sibling or
//!   past the visited log's committed length only: the commit fails
//!   typed and the previous committed image, with the log prefix it
//!   names, stays loadable.
//! - **Socket faults** exercise the service's accept-loop retry, read
//!   timeouts, and the client's reconnect-and-resume-by-request-id path.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bounded attempts for a transiently-failing I/O call (the first try
/// plus the retries).
pub const IO_ATTEMPTS: usize = 3;

/// Deterministic backoff between retry attempts, in milliseconds. A
/// fixed schedule, not a clock-derived one: wall time never enters the
/// retry *decision*, only the waiting.
const BACKOFF_MS: [u64; 2] = [1, 2];

/// How many chunk budgets the degraded (spill-exhausted) resident
/// frontier may grow to before the run fails typed instead.
pub const DEGRADED_CAP_CHUNKS: usize = 64;

/// One injectable operation seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultOp {
    /// Creating a spill chunk file.
    SpillCreate = 0,
    /// Writing an encoded chunk to a spill file.
    SpillWrite = 1,
    /// Reading an encoded chunk back from a spill file.
    SpillRead = 2,
    /// Unlinking a spill file on drop.
    SpillUnlink = 3,
    /// Appending a segment to the visited log, or writing the checkpoint
    /// image to its staging file.
    CkptWrite = 4,
    /// `fdatasync` of the visited log or of the staged checkpoint image.
    CkptSync = 5,
    /// The atomic rename that commits a checkpoint.
    CkptRename = 6,
    /// The server's listener accept call.
    Accept = 7,
    /// A socket read.
    SockRead = 8,
    /// A socket write.
    SockWrite = 9,
}

/// Number of [`FaultOp`] seams (counter-array size).
const OP_COUNT: usize = 10;

impl FaultOp {
    /// The fault kinds that are physically plausible at this seam (a
    /// rename cannot be short; a socket read cannot hit ENOSPC).
    fn plausible_kinds(self) -> u8 {
        match self {
            FaultOp::SpillCreate => kind_bit(FaultKind::Enospc) | kind_bit(FaultKind::Eintr),
            FaultOp::SpillWrite | FaultOp::CkptWrite => {
                kind_bit(FaultKind::Enospc)
                    | kind_bit(FaultKind::Eintr)
                    | kind_bit(FaultKind::Short)
                    | kind_bit(FaultKind::Torn)
            }
            FaultOp::SpillRead => kind_bit(FaultKind::Eintr) | kind_bit(FaultKind::Short),
            FaultOp::SpillUnlink => kind_bit(FaultKind::Eintr),
            FaultOp::CkptSync | FaultOp::CkptRename => {
                kind_bit(FaultKind::Enospc) | kind_bit(FaultKind::Eintr)
            }
            FaultOp::Accept => {
                kind_bit(FaultKind::Eintr) | kind_bit(FaultKind::Reset) | kind_bit(FaultKind::Stall)
            }
            FaultOp::SockRead | FaultOp::SockWrite => {
                kind_bit(FaultKind::Eintr)
                    | kind_bit(FaultKind::Short)
                    | kind_bit(FaultKind::Reset)
                    | kind_bit(FaultKind::Stall)
            }
        }
    }
}

/// One injectable fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultKind {
    /// `ENOSPC`: the device is full. Not transient — triggers the
    /// degradation (spill) or typed-failure (checkpoint) paths.
    Enospc = 0,
    /// `EINTR`: a signal interrupted the call. Transient — retried.
    Eintr = 1,
    /// A short read/write: part of the buffer transferred, then the call
    /// failed transiently. Retried from a clean re-positioned state.
    Short = 2,
    /// A torn write: part of the buffer landed, then the call failed
    /// non-transiently. The hardened paths must never let torn bytes
    /// become a live image.
    Torn = 3,
    /// `ECONNRESET`: the peer vanished mid-transfer (sockets only).
    Reset = 4,
    /// The call blocks far longer than expected (sockets only) — drives
    /// the read-timeout and heartbeat paths.
    Stall = 5,
}

const ALL_KINDS: [FaultKind; 6] = [
    FaultKind::Enospc,
    FaultKind::Eintr,
    FaultKind::Short,
    FaultKind::Torn,
    FaultKind::Reset,
    FaultKind::Stall,
];

fn kind_bit(kind: FaultKind) -> u8 {
    1u8 << (kind as u8)
}

fn op_bit(op: FaultOp) -> u16 {
    1u16 << (op as usize)
}

impl FaultKind {
    /// The injected kind rendered as the `std::io::Error` a real kernel
    /// would have returned. ENOSPC carries the real OS errno so
    /// `ErrorKind` classification matches a genuine full disk.
    #[must_use]
    pub fn to_io_error(self) -> std::io::Error {
        match self {
            // 28 = ENOSPC on every Unix this workspace targets.
            FaultKind::Enospc => std::io::Error::from_raw_os_error(28),
            FaultKind::Eintr => {
                std::io::Error::new(std::io::ErrorKind::Interrupted, "injected EINTR")
            }
            FaultKind::Short => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected short transfer (partial bytes landed)",
            ),
            FaultKind::Torn => std::io::Error::other("injected torn write (partial bytes landed)"),
            FaultKind::Reset => std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected connection reset",
            ),
            FaultKind::Stall => std::io::Error::new(std::io::ErrorKind::TimedOut, "injected stall"),
        }
    }
}

/// Whether an I/O error is worth a bounded retry (EINTR-class: the call
/// was interrupted, not refused).
#[must_use]
pub fn is_transient(err: &std::io::Error) -> bool {
    err.kind() == std::io::ErrorKind::Interrupted
}

/// Whether an I/O error means the target device/directory is out of
/// space (the graceful-degradation trigger for the spill path).
#[must_use]
pub fn is_out_of_space(err: &std::io::Error) -> bool {
    err.raw_os_error() == Some(28)
}

/// A fault-injection plan: the seed, the per-1024 injection rate,
/// and the targeted operation/kind sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Injection probability numerator out of 1024 draws.
    rate: u32,
    ops: u16,
    kinds: u8,
}

impl FaultPlan {
    /// A plan targeting every seam and kind at the default rate
    /// (32/1024).
    #[must_use]
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: 32,
            ops: u16::MAX,
            kinds: u8::MAX,
        }
    }

    /// Overrides the injection rate (clamped to 1024 = always).
    #[must_use]
    pub fn with_rate(mut self, rate: u32) -> FaultPlan {
        self.rate = rate.min(1024);
        self
    }

    /// Restricts the plan to the given operation seams.
    #[must_use]
    pub fn with_ops(mut self, ops: &[FaultOp]) -> FaultPlan {
        self.ops = ops.iter().fold(0, |mask, &op| mask | op_bit(op));
        self
    }

    /// Restricts the plan to the given fault kinds.
    #[must_use]
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> FaultPlan {
        self.kinds = kinds.iter().fold(0, |mask, &kind| mask | kind_bit(kind));
        self
    }
}

/// One SplitMix64 output for the given state word — the whole schedule
/// is this function over (seed, seam, per-seam counter).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The armed plane's shared state: the plan plus per-seam draw counters
/// and the two lifetime statistics counters.
#[derive(Debug)]
struct PlaneState {
    plan: FaultPlan,
    draws: [AtomicU64; OP_COUNT],
    injected: AtomicU64,
    retries: AtomicU64,
}

/// The fault-injection seam every hardened I/O call consults. Cheap to
/// clone (an `Option<Arc>`), and [`FaultPlane::inject`] is one inline
/// `None` check when disarmed — the fault-free configuration pays
/// nothing measurable.
#[derive(Debug, Clone, Default)]
pub struct FaultPlane(Option<Arc<PlaneState>>);

impl FaultPlane {
    /// The no-op plane: every seam passes straight through.
    #[must_use]
    pub fn disabled() -> FaultPlane {
        FaultPlane(None)
    }

    /// A plane injecting from `plan`'s seeded schedule.
    #[must_use]
    pub fn armed(plan: FaultPlan) -> FaultPlane {
        FaultPlane(Some(Arc::new(PlaneState {
            plan,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })))
    }

    /// Draws the schedule at one seam: `Some(kind)` means the caller
    /// must behave as if the operation failed that way. Inline and
    /// branch-free-cheap when disarmed.
    #[inline]
    #[must_use]
    pub fn inject(&self, op: FaultOp) -> Option<FaultKind> {
        let state = self.0.as_ref()?;
        state.draw(op)
    }

    /// Records one transient-error retry (for `ExploreStats::io_retries`).
    pub fn note_retry(&self) {
        if let Some(state) = &self.0 {
            state.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lifetime faults injected through this plane.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// Lifetime transient-error retries recorded through this plane.
    #[must_use]
    pub fn io_retries(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.retries.load(Ordering::Relaxed))
    }
}

impl PlaneState {
    fn draw(&self, op: FaultOp) -> Option<FaultKind> {
        if self.plan.ops & op_bit(op) == 0 {
            return None;
        }
        let eligible = self.plan.kinds & op.plausible_kinds();
        if eligible == 0 {
            return None;
        }
        let n = self.draws[op as usize].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(
            self.plan
                .seed
                .wrapping_add((op as u64).wrapping_mul(0xa076_1d64_78bd_642f))
                .wrapping_add(n.wrapping_mul(0xe703_7ed1_a0b4_28db)),
        );
        if (h & 1023) >= u64::from(self.plan.rate) {
            return None;
        }
        // Pick the (h >> 32)-th set bit among the eligible kinds.
        let count = u64::from(eligible.count_ones());
        let mut pick = (h >> 32) % count;
        for kind in ALL_KINDS {
            if eligible & kind_bit(kind) != 0 {
                if pick == 0 {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    return Some(kind);
                }
                pick -= 1;
            }
        }
        unreachable!("pick < count_ones(eligible)")
    }
}

/// Runs `op` with bounded retry on transient (EINTR-class) errors,
/// sleeping the fixed [`BACKOFF_MS`] schedule between attempts. The
/// closure must re-establish any positioning state itself (seek, file
/// re-creation): a retried attempt starts from scratch.
pub(crate) fn with_io_retries<T>(
    plane: &FaultPlane,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut last = None;
    for attempt in 0..IO_ATTEMPTS {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if is_transient(&err) => {
                plane.note_retry();
                if attempt + 1 < IO_ATTEMPTS {
                    std::thread::sleep(std::time::Duration::from_millis(
                        BACKOFF_MS[attempt.min(BACKOFF_MS.len() - 1)],
                    ));
                }
                last = Some(err);
            }
            Err(err) => return Err(err),
        }
    }
    Err(last.expect("loop ran IO_ATTEMPTS times"))
}

/// Writes `buf` through the given seam. An injected short or torn fault
/// lands a *real* partial prefix before failing — the damage is
/// physical, not simulated — so retry paths must re-position or recreate
/// the target themselves before the next attempt.
pub(crate) fn faulty_write_all(
    plane: &FaultPlane,
    op: FaultOp,
    writer: &mut impl std::io::Write,
    buf: &[u8],
) -> std::io::Result<()> {
    match plane.inject(op) {
        None => writer.write_all(buf),
        Some(kind @ (FaultKind::Short | FaultKind::Torn)) => {
            writer.write_all(&buf[..buf.len() / 2])?;
            Err(kind.to_io_error())
        }
        Some(kind) => Err(kind.to_io_error()),
    }
}

/// Every way a hardened kernel run can fail *without* panicking. The
/// `Display` strings deliberately match the panic messages the legacy
/// `run`/`load` entry points raised, so message-pinning tests and log
/// scrapers see identical text whichever surface reported the failure.
#[derive(Debug)]
pub enum EngineError {
    /// A spill-file operation failed past its retry budget.
    SpillIo {
        /// The spill file.
        path: PathBuf,
        /// The failing operation: `"create"`, `"write"`, or `"read"`.
        op: &'static str,
        /// The underlying I/O error, rendered.
        msg: String,
    },
    /// The spill directory ran out of space and the degraded resident
    /// frontier exceeded its hard cap.
    SpillExhausted {
        /// The spill directory.
        path: PathBuf,
        /// The resident-byte cap the degraded level exceeded.
        budget: usize,
    },
    /// A checkpoint store I/O operation failed past its retry budget.
    CheckpointIo {
        /// The live checkpoint file.
        path: PathBuf,
        /// The failing operation: `"commit"` or `"read"`.
        op: &'static str,
        /// The underlying I/O error, rendered.
        msg: String,
    },
    /// The checkpoint file is structurally damaged (torn, truncated,
    /// bit-flipped, or not a checkpoint at all). Recovery: re-run the
    /// exploration from scratch.
    CheckpointCorrupt {
        /// The checkpoint file.
        path: PathBuf,
        /// What failed to decode or verify.
        what: String,
    },
    /// The checkpoint was written by a different (incompatible) format
    /// version. Recovery: re-run from scratch — layouts do not migrate.
    CheckpointVersion {
        /// The checkpoint file.
        path: PathBuf,
        /// The version found in the file.
        found: u64,
        /// The only version this build reads.
        supported: u64,
    },
    /// The checkpoint was taken under a different run configuration.
    /// Recovery: resume with the original configuration (this is a
    /// caller mistake, not a damaged file).
    CheckpointConfigMismatch {
        /// The checkpoint file.
        path: PathBuf,
        /// The mismatching header field.
        field: String,
        /// The field's value at checkpoint time.
        stored: String,
        /// The resuming run's value.
        current: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::SpillIo { path, op, msg } => match *op {
                "create" => write!(f, "cannot create spill file {}: {msg}", path.display()),
                "read" => write!(f, "spill read from {} failed: {msg}", path.display()),
                _ => write!(f, "spill write to {} failed: {msg}", path.display()),
            },
            EngineError::SpillExhausted { path, budget } => write!(
                f,
                "spill directory {} is out of space and the degraded resident \
                 frontier exceeded its {budget}-byte cap — free disk space or \
                 raise the memory budget",
                path.display()
            ),
            EngineError::CheckpointIo { path, op, msg } => {
                write!(f, "cannot {op} checkpoint {}: {msg}", path.display())
            }
            EngineError::CheckpointCorrupt { path, what } => write!(
                f,
                "corrupt checkpoint {}: {what} — delete the checkpoint directory \
                 to start fresh",
                path.display()
            ),
            EngineError::CheckpointVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "checkpoint {} has format version {found}, but this build \
                 reads only version {supported} — re-run the exploration \
                 from scratch (checkpoint layouts do not migrate)",
                path.display()
            ),
            EngineError::CheckpointConfigMismatch {
                path,
                field,
                stored,
                current,
            } => write!(
                f,
                "checkpoint {} was taken under a different configuration: \
                 {field} was {stored} at checkpoint time but the resuming \
                 run has {current}; resuming would silently change the \
                 answer — resume with the original configuration or delete \
                 the checkpoint directory to start fresh",
                path.display()
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_planes_never_inject_and_count_nothing() {
        let plane = FaultPlane::disabled();
        for op in [
            FaultOp::SpillCreate,
            FaultOp::SpillWrite,
            FaultOp::SpillRead,
            FaultOp::SpillUnlink,
            FaultOp::CkptWrite,
            FaultOp::CkptSync,
            FaultOp::CkptRename,
            FaultOp::Accept,
            FaultOp::SockRead,
            FaultOp::SockWrite,
        ] {
            assert_eq!(plane.inject(op), None);
        }
        plane.note_retry();
        assert_eq!(plane.faults_injected(), 0);
        assert_eq!(plane.io_retries(), 0);
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let draw_all = |seed: u64| -> Vec<Option<FaultKind>> {
            let plane = FaultPlane::armed(FaultPlan::seeded(seed).with_rate(256));
            (0..200)
                .map(|_| plane.inject(FaultOp::SpillWrite))
                .collect()
        };
        let a = draw_all(1);
        assert_eq!(a, draw_all(1), "same seed, same schedule");
        assert_ne!(a, draw_all(2), "different seed, different schedule");
        let hits = a.iter().flatten().count();
        assert!(hits > 10, "rate 256/1024 over 200 draws injected {hits}");
        assert!(hits < 120, "rate 256/1024 over 200 draws injected {hits}");
    }

    #[test]
    fn injections_respect_op_and_kind_masks() {
        let plane = FaultPlane::armed(
            FaultPlan::seeded(9)
                .with_rate(1024)
                .with_ops(&[FaultOp::CkptRename])
                .with_kinds(&[FaultKind::Eintr]),
        );
        assert_eq!(plane.inject(FaultOp::SpillWrite), None, "untargeted op");
        assert_eq!(plane.inject(FaultOp::CkptRename), Some(FaultKind::Eintr));
        // Torn is implausible for a rename: masked to Torn only, the
        // targeted seam goes quiet rather than injecting nonsense.
        let torn_only = FaultPlane::armed(
            FaultPlan::seeded(9)
                .with_rate(1024)
                .with_ops(&[FaultOp::CkptRename])
                .with_kinds(&[FaultKind::Torn]),
        );
        assert_eq!(torn_only.inject(FaultOp::CkptRename), None);
        assert_eq!(torn_only.faults_injected(), 0);
    }

    #[test]
    fn retry_helper_retries_transients_and_propagates_hard_errors() {
        let plane = FaultPlane::armed(FaultPlan::seeded(3));
        let mut attempts = 0;
        let out: std::io::Result<u32> = with_io_retries(&plane, || {
            attempts += 1;
            if attempts < 3 {
                Err(FaultKind::Eintr.to_io_error())
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.expect("third attempt succeeds"), 99);
        assert_eq!(attempts, 3);
        assert_eq!(plane.io_retries(), 2);

        let mut attempts = 0;
        let out: std::io::Result<u32> = with_io_retries(&plane, || {
            attempts += 1;
            Err(FaultKind::Enospc.to_io_error())
        });
        assert!(is_out_of_space(&out.expect_err("hard error propagates")));
        assert_eq!(attempts, 1, "ENOSPC is not transient");

        let mut attempts = 0;
        let out: std::io::Result<u32> = with_io_retries(&plane, || {
            attempts += 1;
            Err(FaultKind::Eintr.to_io_error())
        });
        assert!(is_transient(&out.expect_err("budget exhausts")));
        assert_eq!(attempts, IO_ATTEMPTS);
    }

    #[test]
    fn error_kind_mapping_matches_real_errnos() {
        assert!(is_out_of_space(&FaultKind::Enospc.to_io_error()));
        assert!(is_transient(&FaultKind::Eintr.to_io_error()));
        assert!(is_transient(&FaultKind::Short.to_io_error()));
        assert!(!is_transient(&FaultKind::Torn.to_io_error()));
        assert!(!is_transient(&FaultKind::Reset.to_io_error()));
        assert_eq!(
            FaultKind::Reset.to_io_error().kind(),
            std::io::ErrorKind::ConnectionReset
        );
    }
}
