//! es-serve: a fault-isolated multi-tenant session server for the es
//! interpreter.
//!
//! One server hosts many concurrent es sessions over a simple framed
//! protocol ([`proto`]): spawn a session, feed it command lines,
//! stream back its output, close it. Under the hood:
//!
//! - [`pool`] — a slab of recycled `Machine<SimOs>` slots, each with
//!   a worker on its own fiber in the server's thread that runs the
//!   slot's commands. The pool recycles, audits and scrubs a machine
//!   by plain calls, with a reset oracle proving zero state bleed
//!   between tenants.
//! - [`gate`] — the cooperative timeslicing baton: workers park at the
//!   interpreter's `charge()` seam when their slice is spent, so one
//!   runaway `while {true} {}` cannot delay anyone else.
//! - `fiber` — the stackful coroutines the workers run on: a parked
//!   command keeps its evaluator frames on its fiber's stack.
//! - [`server`] — admission control (high-water shedding with
//!   exponential-backoff hints), baton scheduling, panic containment
//!   at the slot boundary, and drain-mode shutdown.
//! - [`soak`] — the seeded acceptance driver: thousands of sessions
//!   with fault weather, tight budgets, and injected panics, whose
//!   event log (a length and a digest of every frame) must replay
//!   identically.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod fiber;
pub mod gate;
pub mod pool;
pub mod proto;
pub mod server;
pub mod soak;

pub use gate::{Phase, SliceGate};
pub use pool::{Outcome, Pool, ResetReport, SlotState, PANIC_PROBE};
pub use proto::{FaultClass, Frame, ProtoError};
pub use server::{EventLog, ServeConfig, ServeStats, Server};
pub use soak::{run_soak, SoakConfig, SoakReport};
