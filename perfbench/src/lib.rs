//! # perfbench
//!
//! The pipefail benchmark harness. It measures the program from outside:
//! servers start in this process through `pipefail_serve::{serve,
//! serve_federated}` with default configurations, one generator thread
//! drives an open-loop Poisson schedule over two pipelined keep-alive
//! connections, and the fit workload calls `Dpmhbp::fit_rank_detailed`
//! directly. See `README.md` in this directory for the workloads, the
//! metrics, and how to run it.
//!
//! The modules split into pure pieces the self-tests cover ([`rng`],
//! [`stats`], [`framing`], [`schedule`]) and the pieces that touch the
//! host ([`sys`], [`speed`], [`client`]) or the program ([`serving`],
//! [`fit`]).

pub mod client;
pub mod fit;
pub mod framing;
pub mod report;
pub mod rng;
pub mod schedule;
pub mod serving;
pub mod speed;
pub mod stats;
pub mod sys;
pub mod trace;
