//! The repository benchmark: traffic mixes through the Figure 4 testbed,
//! every read checked against an independent reference origin. See
//! `README.md` next to this crate for the workloads and metrics.

pub mod check;
pub mod deploy;
pub mod drive;
pub mod live;
pub mod ops;
pub mod replay;
pub mod run;
pub mod stats;
