//! End-to-end and per-layer benchmark of the Crossroads closed-loop
//! simulator.
//!
//! Two passes share the workloads of [`workload`]: the [`timed`] pass
//! measures what a sweep user waits for with tracing off, and the
//! [`traced`] pass times each layer from outside by calling its public
//! function on the same inputs. Both check every outcome with [`check`].
//! See `README.md` for why each workload exists.

pub mod check;
pub mod report;
pub mod timed;
pub mod traced;
pub mod workload;

pub use check::Fingerprint;
pub use timed::timed_pass;
pub use traced::traced_pass;
pub use workload::{setup, Scale, Workload};
