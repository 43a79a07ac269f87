//! Scenario implementations for every table/figure job.
//!
//! Each submodule exports one `run(ctx)` entry point writing the
//! scenario's human-readable output into [`ScenarioCtx::out`]. The
//! [`crate::suite`] runner captures that output in memory and
//! checksums it; `suite --only NAME --print-output` prints it.
//!
//! Determinism contract: a scenario's output may depend only on
//! [`ScenarioCtx::seed`] and [`ScenarioCtx::quick`] — never on wall
//! clock, thread interleaving, or global state — so that parallel
//! suite runs are byte-identical to serial ones.
//!
//! [`ScenarioCtx::out`]: crate::suite::ScenarioCtx
//! [`ScenarioCtx::seed`]: crate::suite::ScenarioCtx
//! [`ScenarioCtx::quick`]: crate::suite::ScenarioCtx

pub mod ablations;
pub mod chaos;
pub mod chaos_fleet;
pub mod elastic_fleet;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig7;
pub mod fig9;
pub mod fleet;
pub mod policy;
pub mod sweep;
pub mod table1;
pub mod table2;
