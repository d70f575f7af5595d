//! The resource governor: catchable limits and a deterministic
//! watchdog.
//!
//! The paper treats exceptions as the shell's only non-value control
//! path; this module extends that discipline to resource exhaustion.
//! A [`Machine`] carries a [`Governor`] holding optional [`Limits`] on
//! six resources (recursion depth, eval steps, live heap objects, open
//! descriptors, output bytes, and a virtual-time deadline). The
//! interpreter calls [`charge`] at its choke points — command
//! dispatch, loop-iteration tops — and a breached limit raises a
//! *catchable* `limit <kind> <used> <max>` exception that unwinds
//! through the ordinary `catch` machinery, so shell code can sandbox a
//! subcomputation with `%limit steps 1000 {cmd}` and recover.
//!
//! The time limit is different: it models SIGALRM. When the virtual
//! clock passes the deadline, [`charge`] delivers a `signal sigalrm`
//! exception instead of a `limit` one — a deterministic watchdog that
//! follows the paper's signals-as-exceptions path exactly.
//!
//! At 90% of any armed limit a one-shot warning is written to fd 2, so
//! long-running scripts get advance notice before the exception fires.

use crate::exception::{EsError, EsResult};
use crate::machine::{Machine, YieldAction};
use es_os::{Os, Signal};

/// Virtual nanoseconds charged to the clock per eval step, so the
/// time watchdog fires even in loops that never touch the kernel.
/// Real kernels advance their own clock ([`Os::advance_ns`] is a
/// no-op there); the simulator's is driven entirely by charges.
pub const EVAL_STEP_NS: u64 = 100;

/// The exit status a cancelled machine unwinds with when its
/// [`crate::Yield`] hook returns [`YieldAction::Cancel`]. Deliberately
/// the timeout convention (124); schedulers must not classify by this
/// number alone — tenant code can `exit 124` too — but by whether they
/// themselves requested the cancel.
pub const CANCEL_EXIT: i32 = 124;

/// The six governed resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closure-application nesting (`Machine::depth`).
    Depth,
    /// Eval steps (one per [`charge`] call).
    Steps,
    /// Live heap objects, measured after a forced collection.
    Heap,
    /// Open descriptors in the kernel table.
    Fds,
    /// Bytes written through `Machine::write_fd` (all descriptors).
    Output,
    /// Virtual-time deadline; breaching delivers `signal sigalrm`.
    Time,
}

/// Each kind's name, indexed by `Kind as usize`: the one place a kind
/// is spelled.
const NAMES: [&str; Kind::ALL.len()] = ["depth", "steps", "heap", "fds", "output", "time"];

impl Kind {
    /// All kinds, in the order `limits` reports them.
    pub const ALL: [Kind; 6] = [
        Kind::Depth,
        Kind::Steps,
        Kind::Heap,
        Kind::Fds,
        Kind::Output,
        Kind::Time,
    ];

    /// The name used in exceptions and the `%limit` interface.
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    /// Parses a kind name. A name becomes a kind only where it enters
    /// the program: `%limit`, the CLI's `--limit` and a served `Open`.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Every kind's name, for an unknown-kind message:
    /// `depth, steps, heap, fds, output, or time`.
    pub fn choices() -> String {
        let (last, rest) = NAMES.split_last().expect("there are kinds");
        format!("{}, or {last}", rest.join(", "))
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// One optional value per [`Kind`], indexed by it; `None` means
/// unlimited. The governor stores absolute values: the prim layer
/// converts relative budgets ("1000 more steps") via [`resolve`]
/// before arming. A served session keeps the budgets it re-arms
/// before each command in one too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits([Option<u64>; Kind::ALL.len()]);

impl Limits {
    /// The interpreter's boot defaults: only the recursion-depth guard
    /// is armed (the same 150 the pre-governor `max_depth` used — deep
    /// enough for real scripts, shallow enough that naive recursion
    /// cannot blow the 2 MiB stacks debug test threads get).
    pub fn default_interpreter() -> Limits {
        Limits::only(Kind::Depth, 150)
    }

    /// Limits with only `kind` armed, at `value`.
    pub fn only(kind: Kind, value: u64) -> Limits {
        let mut limits = Limits::default();
        limits.set(kind, Some(value));
        limits
    }

    /// The armed value for `kind`, if any. For `time` it is the
    /// virtual-clock deadline in nanoseconds.
    pub fn get(&self, kind: Kind) -> Option<u64> {
        self.0[kind as usize]
    }

    /// Arms (or with `None`, disarms) `kind`.
    pub fn set(&mut self, kind: Kind, value: Option<u64>) {
        self.0[kind as usize] = value;
    }

    /// The armed kinds and their values, in [`Kind::ALL`] order.
    pub fn armed(&self) -> impl Iterator<Item = (Kind, u64)> + '_ {
        Kind::ALL
            .into_iter()
            .filter_map(|kind| Some((kind, self.get(kind)?)))
    }
}

/// Per-machine governor state: the armed [`Limits`] plus the counters
/// they are checked against.
#[derive(Debug, Clone)]
pub struct Governor {
    limits: Limits,
    /// Eval steps taken so far (monotone).
    steps: u64,
    /// Bytes written through the machine so far (monotone).
    out_bytes: u64,
    /// Bitmask of kinds whose 90% warning already fired.
    warned: u8,
    /// True iff any limit other than depth is armed — the fast path
    /// in [`charge`] checks this single bool.
    active: bool,
}

impl Governor {
    /// Creates a governor with the given limits armed.
    pub fn new(limits: Limits) -> Governor {
        let mut g = Governor {
            limits,
            steps: 0,
            out_bytes: 0,
            warned: 0,
            active: false,
        };
        g.recompute_active();
        g
    }

    /// The currently armed limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Eval steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Bytes written through `Machine::write_fd` so far.
    pub fn out_bytes(&self) -> u64 {
        self.out_bytes
    }

    /// Arms `kind` at `value` unconditionally — used by the CLI and
    /// the permanent two-argument `%limit` form, which may *raise* a
    /// limit (e.g. `--limit depth=500` over the default 150).
    pub fn set(&mut self, kind: Kind, value: Option<u64>) {
        self.limits.set(kind, value);
        self.warned &= !kind.bit();
        self.recompute_active();
    }

    /// Arms `kind` at `value` or the already-armed value, whichever is
    /// tighter — the scoped `%limit kind n {cmd}` form uses this so an
    /// inner sandbox can never loosen an outer one.
    pub fn tighten(&mut self, kind: Kind, value: u64) {
        let new = match self.limits.get(kind) {
            Some(old) => old.min(value),
            None => value,
        };
        self.limits.set(kind, Some(new));
        self.recompute_active();
    }

    /// Disarms `kind` (breach does this for monotone counters so the
    /// catch handler does not immediately re-trip).
    pub fn disarm(&mut self, kind: Kind) {
        self.limits.set(kind, None);
        self.recompute_active();
    }

    /// Captures the state the scoped `%limit` form must restore.
    pub fn snapshot(&self) -> (Limits, u8) {
        (self.limits, self.warned)
    }

    /// Restores a [`Governor::snapshot`] after a scoped `%limit` body
    /// finishes (normally or by unwinding).
    pub fn restore(&mut self, snap: (Limits, u8)) {
        self.limits = snap.0;
        self.warned = snap.1;
        self.recompute_active();
    }

    /// Records `n` bytes written through the machine. Only counts —
    /// the quota is checked at the next [`charge`], never here, so the
    /// warning path can itself write to fd 2 without recursing.
    pub fn note_output(&mut self, n: usize) {
        self.out_bytes += n as u64;
    }

    fn recompute_active(&mut self) {
        self.active = self.limits.armed().any(|(kind, _)| kind != Kind::Depth);
    }
}

/// Converts a pending signal into the error that unwinds the
/// interpreter: `sigkill` exits the shell, anything else becomes the
/// catchable `signal <name>` exception from the paper.
pub fn signal_error<O: Os + Clone>(m: &mut Machine<O>, sig: Signal) -> EsError {
    if sig == Signal::Kill {
        return EsError::Exit(1);
    }
    m.exception(&["signal", sig.name()])
}

/// Raises the catchable `limit <kind> <used> <max>` exception and
/// disarms the tripped limit so the handler can run without
/// immediately re-tripping. Depth is the exception to the exception:
/// unwinding shrinks `Machine::depth` back below the limit naturally,
/// and disarming it would permanently remove the recursion guard.
pub fn breach<O: Os + Clone>(m: &mut Machine<O>, kind: Kind, used: u64, max: u64) -> EsError {
    if kind != Kind::Depth {
        m.governor_mut().disarm(kind);
    }
    m.exception(&["limit", kind.name(), &used.to_string(), &max.to_string()])
}

/// Writes the one-shot 90% warning for `kind` to the *owning
/// session's* standard-error stream if it is due.
///
/// The warning goes straight to the kernel console descriptor
/// ([`es_os::STDERR`]), not through shell fd 2: a tenant that
/// redirected fd 2 into a file — or a serving slot whose fd table is
/// mid-recycle — still gets the warning on its own stderr stream, and
/// it can never interleave into another session's output because each
/// pooled session owns its kernel. Bypassing [`Machine::write_fd`]
/// also keeps shell-generated warnings from counting against the
/// tenant's own output quota.
pub fn soft_warn<O: Os + Clone>(m: &mut Machine<O>, kind: Kind, used: u64, max: u64) {
    if m.governor().warned & kind.bit() != 0 {
        return;
    }
    // u128 so huge limits can't overflow the comparison.
    if (used as u128) * 10 < (max as u128) * 9 {
        return;
    }
    m.governor_mut().warned |= kind.bit();
    let msg = format!(
        "es: warning: {} limit at {}/{} (90%)\n",
        kind.name(),
        used,
        max
    );
    let _ = es_os::write_fully(m.os_mut(), es_os::STDERR, msg.as_bytes());
}

/// The interpreter's per-step accounting choke point: advances the
/// virtual clock, polls for signals, counts the step, and (only when
/// some limit is armed) checks every governed resource. Called at
/// command dispatch and at the top of each loop iteration — points
/// where all live refs are rooted, so the heap check may collect.
pub fn charge<O: Os + Clone>(m: &mut Machine<O>) -> EsResult<()> {
    // Cooperative yield first: when a scheduler owns this machine the
    // tick may suspend it until the next timeslice is granted.
    // Ticking before the clock advance keeps slice accounting in
    // steps, so a yielded machine's virtual time is unaffected by how
    // long it sat parked.
    if let Some(y) = m.yielder() {
        if y.tick() == YieldAction::Cancel {
            return Err(EsError::Exit(CANCEL_EXIT));
        }
    }
    m.os_mut().advance_ns(EVAL_STEP_NS);
    if let Some(sig) = m.os_mut().take_signal() {
        return Err(signal_error(m, sig));
    }
    m.governor_mut().steps += 1;
    if !m.governor().active {
        return Ok(());
    }
    check_limits(m)
}

/// The slow path of [`charge`]: every armed limit is compared against
/// its counter, warning at 90% and unwinding on breach.
#[cold]
fn check_limits<O: Os + Clone>(m: &mut Machine<O>) -> EsResult<()> {
    if let Some(max) = m.governor().limits.get(Kind::Steps) {
        let used = m.governor().steps;
        if used >= max {
            return Err(breach(m, Kind::Steps, used, max));
        }
        soft_warn(m, Kind::Steps, used, max);
    }
    if let Some(deadline) = m.governor().limits.get(Kind::Time) {
        let now = m.os().now_ns();
        if now >= deadline {
            // The watchdog: an expired deadline is SIGALRM, not a
            // `limit` exception — it rides the signal path so spoofed
            // signal handling sees it too.
            m.governor_mut().disarm(Kind::Time);
            return Err(signal_error(m, Signal::Alrm));
        }
    }
    if let Some(max) = m.governor().limits.get(Kind::Output) {
        let used = m.governor().out_bytes;
        if used >= max {
            return Err(breach(m, Kind::Output, used, max));
        }
        soft_warn(m, Kind::Output, used, max);
    }
    if let Some(max) = m.governor().limits.get(Kind::Fds) {
        let used = m.os().open_desc_count() as u64;
        if used > max {
            return Err(breach(m, Kind::Fds, used, max));
        }
        soft_warn(m, Kind::Fds, used, max);
    }
    if let Some(max) = m.governor().limits.get(Kind::Heap) {
        if m.heap.len() as u64 > max {
            if let Some(live) = m.heap.enforce_budget(max) {
                return Err(breach(m, Kind::Heap, live, max));
            }
        }
        soft_warn(m, Kind::Heap, m.heap.len() as u64, max);
    }
    Ok(())
}

/// Converts a user-supplied limit value into the absolute form
/// [`Limits`] stores. Steps and output are budgets *from here* ("1000
/// more steps"); time is a deadline `value` milliseconds from now;
/// depth, heap and fds are already absolute.
pub fn resolve<O: Os + Clone>(m: &Machine<O>, kind: Kind, value: u64) -> u64 {
    match kind {
        Kind::Steps => m.governor().steps.saturating_add(value),
        Kind::Output => m.governor().out_bytes.saturating_add(value),
        Kind::Time => m
            .os()
            .now_ns()
            .saturating_add(value.saturating_mul(1_000_000)),
        Kind::Depth | Kind::Heap | Kind::Fds => value,
    }
}
