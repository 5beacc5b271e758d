//! The mapping heuristics of the paper's Fig. 3.
//!
//! All ten heuristics the evaluation plugs the pruning mechanism into,
//! implemented against the simulator's [`taskprune_sim::SystemView`]:
//!
//! | mode | heuristics |
//! |------|-----------|
//! | immediate (heterogeneous) | RR, MET, MCT, KPB |
//! | batch (heterogeneous) | MM, MSD, MMU |
//! | batch (homogeneous) | FCFS-RR, EDF, SJF |
//!
//! None of them know the pruning mechanism exists — the paper's central
//! architectural claim is that pruning plugs in "without requiring any
//! change in the existing resource allocation and mapping heuristic".

#![warn(missing_docs)]

pub mod batch;
pub mod homogeneous;
pub mod immediate;
pub mod registry;

pub use batch::{TwoPhase, MM, MMU, MSD};
pub use homogeneous::{
    EarliestDeadlineFirst, FcfsRoundRobin, ShortestJobFirst,
};
pub use immediate::{
    KPercentBest, MinimumCompletionTime, MinimumExecutionTime,
    OpportunisticLoadBalancing, RoundRobin, SwitchingAlgorithm,
};
pub use registry::HeuristicKind;
