//! Curve-fitting toolkit for the hemocloud performance-modeling pipeline.
//!
//! The paper's models are built from three kinds of fits:
//!
//! * **Linear least squares** ([`linear`]) — the PingPong communication
//!   model `t = m/b + l` (paper Eq. 12) is a line in message size whose
//!   slope is `1/b` and whose intercept is the latency `l`.
//! * **Continuous two-line fits** ([`two_line`]) — node memory bandwidth
//!   vs. thread count follows two regimes (core-limited, then
//!   subsystem-limited) joined at a breakpoint `a3` (paper Eq. 8).
//! * **General nonlinear fits** ([`mod@nelder_mead`]) — the load-imbalance
//!   model `z(n)` (Eq. 11) and the message-event model (Eq. 15) have no
//!   closed-form estimator, so they are fit with a derivative-free
//!   Nelder-Mead simplex search.
//!
//! [`sweep`] holds the two microbenchmark sample types — STREAM
//! `(threads, MB/s)` and PingPong `(bytes, µs)` — and their Eq. 8 and
//! Eq. 12 fits, shared by the simulated platforms and the host.
//!
//! [`metrics`] provides the goodness-of-fit measures (SSE, R², MAPE) used
//! throughout the evaluation and by the iterative-refinement loop.

pub mod linear;
pub mod metrics;
pub mod models;
pub mod nelder_mead;
pub mod sweep;
pub mod two_line;

pub use linear::{fit_line, fit_line_fixed_intercept, fit_proportional, LineFit};
pub use models::{fit_events, fit_imbalance, EventModel, ImbalanceModel};
pub use metrics::{mape, mean, r_squared, rmse, sse, std_dev};
pub use nelder_mead::{nelder_mead, NelderMeadOptions, NelderMeadResult};
pub use sweep::{fit_pingpong, fit_stream, CommFit, PingPongSample, StreamSample};
pub use two_line::{fit_two_line, TwoLineFit};
