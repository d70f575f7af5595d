//! Seeded, deterministic fault injection for the simulated kernel.
//!
//! Real shells live on syscalls that fail: writes are interrupted
//! (`EINTR`), disks fill (`ENOSPC`), descriptor tables overflow
//! (`EMFILE`), media decay (`EIO`), and reads and writes complete
//! partially. The es paper's claim — that redirections, pipes, and the
//! interactive loop are ordinary function calls — only holds up if the
//! interpreter under those calls survives this weather, so [`SimOs`]
//! can be armed with a [`FaultPlan`]: a seeded RNG plus one injection
//! probability and a schedule table consulted at every hooked syscall
//! (`open`/`read`/`write`/`pipe`/`dup`/`close`/`run`/`chdir`).
//!
//! Everything is deterministic from the seed: the same plan over the
//! same shell session injects the same faults at the same call
//! numbers, so any failure found by a soak run replays exactly from
//! its seed. Every injection is appended to an event log
//! ([`FaultPlan::log`]) for replay comparison and post-mortems.
//!
//! Faults are injected *before* the syscall mutates any kernel state,
//! which gives `EINTR` the retryable semantics the interpreter's
//! bounded-retry loops rely on (see `es_os::retry_intr`).
//!
//! [`SimOs`]: crate::SimOs
//!
//! # Examples
//!
//! ```
//! use es_os::{FaultKind, FaultPlan, OpenMode, Os, OsError, SimOs, Syscall};
//!
//! let mut os = SimOs::new();
//! // Fail the second write deterministically with ENOSPC.
//! os.set_fault_plan(Some(
//!     FaultPlan::new(7).scheduled(Syscall::Write, 2, FaultKind::NoSpc),
//! ));
//! let fd = os.open("/tmp/out", OpenMode::Write).unwrap();
//! assert!(os.write(fd, b"first ").is_ok());
//! assert_eq!(os.write(fd, b"second"), Err(OsError::NoSpc(String::new())));
//! assert_eq!(os.fault_plan().unwrap().log().len(), 1);
//! ```

use std::fmt;

/// The syscalls the injection layer hooks, used to index the
/// per-syscall call-count table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Syscall {
    /// `open(2)` in any mode.
    Open,
    /// `read(2)`.
    Read,
    /// `write(2)`.
    Write,
    /// `pipe(2)`.
    Pipe,
    /// `dup(2)`.
    Dup,
    /// `close(2)`.
    Close,
    /// Program execution (`fork`+`exec`+`wait` collapsed).
    Run,
    /// `chdir(2)`.
    Chdir,
}

/// How many hooked syscalls there are (table width).
pub const SYSCALL_COUNT: usize = 8;

impl Syscall {
    /// All hooked syscalls, in table order.
    pub const ALL: [Syscall; SYSCALL_COUNT] = [
        Syscall::Open,
        Syscall::Read,
        Syscall::Write,
        Syscall::Pipe,
        Syscall::Dup,
        Syscall::Close,
        Syscall::Run,
        Syscall::Chdir,
    ];

    /// Table index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lowercase name (log rendering).
    pub fn name(self) -> &'static str {
        match self {
            Syscall::Open => "open",
            Syscall::Read => "read",
            Syscall::Write => "write",
            Syscall::Pipe => "pipe",
            Syscall::Dup => "dup",
            Syscall::Close => "close",
            Syscall::Run => "run",
            Syscall::Chdir => "chdir",
        }
    }
}

/// What kind of failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `EINTR` — the call was interrupted before doing anything;
    /// retrying is always safe (and what hardened callers do).
    Intr,
    /// `ENOSPC` — no space left on device.
    NoSpc,
    /// `EMFILE` — descriptor table full.
    MFile,
    /// `EIO` — hard I/O error.
    Io,
    /// The read fills only part of the buffer (never reported as an
    /// error; callers must not equate `n < buf.len()` with EOF).
    ShortRead,
    /// The write consumes only a prefix of the data (reported as
    /// `Ok(n)` with `n < data.len()`; callers must loop).
    PartialWrite,
}

impl FaultKind {
    /// Lowercase name (log rendering).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Intr => "EINTR",
            FaultKind::NoSpc => "ENOSPC",
            FaultKind::MFile => "EMFILE",
            FaultKind::Io => "EIO",
            FaultKind::ShortRead => "short-read",
            FaultKind::PartialWrite => "partial-write",
        }
    }
}

/// One injected fault, as recorded in the plan's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global injection sequence number (1-based).
    pub seq: u64,
    /// Which syscall the fault hit.
    pub syscall: Syscall,
    /// 1-based call number of that syscall when the fault hit.
    pub call: u64,
    /// What was injected.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}[{}] -> {}",
            self.seq,
            self.syscall.name(),
            self.call,
            self.kind.name()
        )
    }
}

/// Deterministic 64-bit generator (splitmix64) — self-contained so the
/// substrate needs no external RNG crate.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        (((self.next() >> 11) as u128 * bound as u128) >> 53) as u64
    }
}

/// Probability denominator: rates are expressed in parts per 1024.
pub const RATE_DENOM: u16 = 1024;

/// A seeded fault-injection plan: one probability for every hooked
/// syscall, explicit schedule entries, and the event log of everything
/// injected.
///
/// Plans are cheap to clone (the kernel's `fork` clones them along
/// with the rest of [`SimOs`]), and two plans built identically always
/// inject identically — determinism is the whole point.
///
/// [`SimOs`]: crate::SimOs
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SplitMix64,
    /// Injection probability of each hooked call, in parts per
    /// [`RATE_DENOM`].
    rate: u16,
    /// Explicit `(syscall, nth-call, kind)` triggers, checked before
    /// the probabilistic draw.
    schedule: Vec<(Syscall, u64, FaultKind)>,
    /// 1-based per-syscall call counters.
    calls: [u64; SYSCALL_COUNT],
    log: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A quiet plan (no probabilistic faults) with the given seed;
    /// arm it with [`FaultPlan::uniform_rate`] or
    /// [`FaultPlan::scheduled`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: SplitMix64::new(seed),
            rate: 0,
            schedule: Vec::new(),
            calls: [0; SYSCALL_COUNT],
            log: Vec::new(),
        }
    }

    /// Sets every hooked syscall's probability (parts per 1024).
    pub fn uniform_rate(mut self, per_1024: u16) -> FaultPlan {
        self.rate = per_1024.min(RATE_DENOM);
        self
    }

    /// Forces `kind` on the `nth` call (1-based) of `syscall`.
    pub fn scheduled(mut self, syscall: Syscall, nth: u64, kind: FaultKind) -> FaultPlan {
        self.schedule.push((syscall, nth, kind));
        self
    }

    /// Everything injected so far, in order.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Mutable log access (`SimOs::take_fault_log` drains it).
    pub(crate) fn log_mut(&mut self) -> &mut Vec<FaultEvent> {
        &mut self.log
    }

    /// Total hooked syscalls seen (injected or not).
    pub fn calls_seen(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Decides whether this call of `syscall` faults, and how.
    /// `allowed` is the set of kinds that make sense at the call site
    /// (e.g. `ENOSPC` only for writing opens); the probabilistic draw
    /// picks uniformly among them. Schedule entries fire regardless of
    /// `allowed` — an explicit trigger is the test author's business.
    pub(crate) fn decide(&mut self, syscall: Syscall, allowed: &[FaultKind]) -> Option<FaultKind> {
        let idx = syscall.index();
        self.calls[idx] += 1;
        let call = self.calls[idx];
        let scheduled = self
            .schedule
            .iter()
            .find(|(s, n, _)| *s == syscall && *n == call)
            .map(|(_, _, k)| *k);
        let kind = match scheduled {
            Some(k) => Some(k),
            None => {
                if self.rate == 0 || allowed.is_empty() {
                    None
                } else if self.rng.below(RATE_DENOM as u64) < self.rate as u64 {
                    Some(allowed[self.rng.below(allowed.len() as u64) as usize])
                } else {
                    None
                }
            }
        }?;
        let seq = self.log.len() as u64 + 1;
        self.log.push(FaultEvent {
            seq,
            syscall,
            call,
            kind,
        });
        Some(kind)
    }

    /// Uniform draw in `[0, bound)` for fault *amounts* (how short a
    /// short read is, how partial a partial write is). Part of the
    /// seeded stream, so amounts replay too.
    pub(crate) fn draw_below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound.max(1))
    }
}
