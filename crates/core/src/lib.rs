//! # ca-nbody
//!
//! Core algorithms of the reproduction of *“A Communication-Optimal N-Body
//! Algorithm for Direct Interactions”* (Driscoll, Georganas, Koanantakool,
//! Solomonik, Yelick — IPDPS 2013).
//!
//! * [`allpairs`] — Algorithm 1, the CA all-pairs force evaluation on a
//!   `p/c × c` processor grid.
//! * [`cutoff`] — Algorithm 2 (1D) and its Fig. 5 generalization (2D),
//!   traversing interaction [`window`]s modulo the cutoff.
//! * [`recovery`] — the retry/agreement/resync protocol the fault-tolerant
//!   entry points of both algorithms wrap around the same shift pass.
//! * [`baselines`] — Plimpton's particle and force decompositions and the
//!   allgather ("tree") naive variant.
//! * [`spatial`] — the non-replicating halo-exchange baseline (§II.C).
//! * [`reassign`] — spatial re-assignment between timesteps (§IV.D).
//! * [`grid`], [`dist`], [`kernel`] — the processor grid, particle
//!   distributions, and the shared block force kernel.

#![warn(missing_docs)]

pub mod allpairs;
pub mod autotune;
pub mod baselines;
pub mod cutoff;
pub mod dist;
pub mod grid;
pub mod kernel;
pub mod midpoint;
pub mod probe;
pub mod reassign;
pub mod recovery;
pub mod schedule;
pub mod sim;
pub mod spatial;
pub mod window;
pub mod window_periodic;
pub mod wire;

pub use cutoff::{ca_cutoff_forces, ca_cutoff_forces_ft, CutoffError};
pub use allpairs::{ca_all_pairs_forces, ca_all_pairs_forces_ft};
pub use grid::{GridComms, GridError, ProcGrid};
pub use recovery::{FaultClass, FaultError, HealthMonitor, RecoveryReport, RetryPolicy};
pub use probe::StepProbe;
pub use sim::{
    run, run_distributed, run_distributed_health, run_distributed_wired, run_serial,
    ChaosRunResult, CheckpointConfig, Method, Recovery, RunOptions, RunOutput, RunResult,
    SimConfig,
};
pub use window::{Window, Window1d, Window2d, Window3d};
pub use window_periodic::{Window1dPeriodic, Window2dPeriodic};
pub use wire::{expected_schedule, WireScheduleSpec};
