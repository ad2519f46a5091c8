//! Fault-tolerant evaluation runtime for BitPacker workloads.
//!
//! The roadmap's north star is a production-scale FHE service, and a
//! service's failure envelope is wider than a library's: jobs run for
//! minutes, hosts get preempted, accelerator FUs glitch, and one broken
//! workload class must not starve the healthy ones. This crate is the
//! supervision layer that turns the panic-free `bp-ckks` pipeline into a
//! *fault-tolerant* one:
//!
//! * [`Runtime::run`] — supervised job execution: cooperative
//!   **deadlines** (a [`CancelToken`] threaded into the evaluator),
//!   **panic isolation** (`catch_unwind` at the job boundary →
//!   [`RuntimeError::JobPanicked`]), **retry** of transient failures with
//!   exponential backoff and deterministic jitter, **graceful
//!   degradation** (policy escalation, then level shedding) before
//!   rejection, and a per-workload **circuit breaker**
//!   ([`CircuitBreaker`]) exported through `bp-telemetry`.
//! * [`Checkpoint`] — versioned, checksummed snapshots of live
//!   ciphertexts (exact scales and chain positions preserved via the
//!   `bp-ckks` wire format) so long evaluations resume bit-identically
//!   after a kill.
//! * [`Runtime::run_program`] — supervised execution of a
//!   [`bp_ir::Program`] attached to the [`JobSpec`], checkpointing an
//!   **exact program position** ([`Checkpoint::program_pos`]) plus the
//!   live node set after each op, and resuming from the latest snapshot
//!   on retry — through the same `Evaluator::step_program_op` step every
//!   other IR consumer uses.
//! * [`RuntimeError`] — the terminal-state taxonomy: every submitted job
//!   ends in exactly one typed outcome, and
//!   [`RuntimeError::is_transient`] is the retry contract.
//!
//! # Quick start
//!
//! ```
//! use bp_runtime::{JobSpec, RetryPolicy, Runtime};
//! use std::time::Duration;
//!
//! let rt = Runtime::new();
//! let spec = JobSpec::new("demo")
//!     .deadline(Duration::from_secs(5))
//!     .retry(RetryPolicy::default());
//! let answer = rt.run(&spec, |ctx| {
//!     // Real jobs build a CkksContext on ctx.threads(), attach
//!     // ctx.cancel_token() to the evaluator, and honor
//!     // ctx.eval_policy() / ctx.shed_levels() on retries.
//!     ctx.check()?;
//!     Ok(6 * 7)
//! })?;
//! assert_eq!(answer, 42);
//! # Ok::<(), bp_runtime::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Same panic-free contract as bp-ckks: library code may not unwrap. The
// whole point of this crate is that nothing escapes as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod checkpoint;
mod error;
mod job;
mod program;

pub use bp_ckks::{BpThreadPool, CancelReason, CancelToken};
pub use breaker::{BreakerConfig, CircuitBreaker};
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use error::RuntimeError;
pub use job::{Degradation, DegradePolicy, JobCtx, JobSpec, RetryPolicy, Runtime};
pub use program::{CheckpointStore, MemoryStore, ProgramOutcome};
