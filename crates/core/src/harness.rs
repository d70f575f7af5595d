//! Differential-testing entry points: drive a scripted session on any
//! kernel backend and collect everything observable as one value.
//!
//! The conformance harness (`crates/es-conform`) boots one machine on
//! [`es_os::SimOs`] and one on [`es_os::RealOs`], runs the same
//! session through [`run_session`], and compares the two
//! [`SessionTrace`]s field by field — the Smoosh-style oracle from
//! ROADMAP item 5. The in-crate fault/limit soaks use the same entry
//! point so "what a session did" is defined in exactly one place.

use crate::machine::Machine;
use es_os::Os;

/// Everything observable from driving one scripted session: per-command
/// outcomes (results or errors — errors are data here, not failures),
/// console bytes, and the kernel descriptor count before and after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTrace {
    /// One entry per command: `"ok: <values>"` or `"err: <message>"`.
    pub outcomes: Vec<String>,
    /// Everything the session wrote to standard output.
    pub stdout: String,
    /// Everything the session wrote to standard error.
    pub stderr: String,
    /// Open kernel descriptors when the session started.
    pub baseline_fds: usize,
    /// Open kernel descriptors when the session finished.
    pub open_fds: usize,
}

impl SessionTrace {
    /// Descriptors gained (leaked) or lost relative to the baseline; a
    /// clean session reports 0.
    pub fn fd_delta(&self) -> isize {
        self.open_fds as isize - self.baseline_fds as isize
    }
}

/// Runs each command of `session` in order on an already-booted
/// machine and returns the trace. Commands that fail keep going —
/// an error outcome is part of the observable behaviour being traced.
pub fn run_session<O: Os + Clone>(m: &mut Machine<O>, session: &[impl AsRef<str>]) -> SessionTrace {
    run_session_with(m, session, |_| {})
}

/// [`run_session`] with a hook called before each command — the limit
/// soaks use it to re-arm a fresh step budget per command.
pub fn run_session_with<O, F>(
    m: &mut Machine<O>,
    session: &[impl AsRef<str>],
    mut before_each: F,
) -> SessionTrace
where
    O: Os + Clone,
    F: FnMut(&mut Machine<O>),
{
    let baseline_fds = m.os().open_desc_count();
    let mut outcomes = Vec::with_capacity(session.len());
    for cmd in session {
        before_each(m);
        match m.run(cmd.as_ref()) {
            Ok(v) => outcomes.push(format!("ok: {}", v.join(" "))),
            Err(e) => outcomes.push(format!("err: {e}")),
        }
    }
    let (stdout, stderr) = m.os_mut().take_console();
    let open_fds = m.os().open_desc_count();
    SessionTrace {
        outcomes,
        stdout,
        stderr,
        baseline_fds,
        open_fds,
    }
}
