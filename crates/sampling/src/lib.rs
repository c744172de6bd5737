#![warn(missing_docs)]
//! Representative-interval sampling ("SimPoint-style") for the ASM
//! reproduction — the `--tier sampled` machinery between the analytic
//! model and full cycle-accurate simulation.
//!
//! A sweep group (runs sharing a prefix configuration and workload mix)
//! pays for **one** fingerprint pass: the run is sliced into fixed
//! quantum-aligned intervals, each summarised by a feature vector drawn
//! from the pass's quantum records (estimated slowdowns, CARs, ATS miss
//! rates, interference cycles) plus its work and alone-run cost
//! ([`interval::fingerprint`]). A deterministic, dependency-free k-means
//! ([`cluster::cluster`]) — seeded purely from the experiment
//! configuration, never from wall-clock or thread schedule — picks `K`
//! medoid intervals with weights. Every member of the group then
//! simulates only those `K` intervals under its own policies, warmed
//! from boundary snapshots captured during the fingerprint pass
//! ([`interval::measure_interval`]), and the whole-run metrics are
//! reconstructed as stratified difference estimates **with confidence
//! intervals** ([`interval::estimate_slowdowns`], [`estimate::Estimate`]).
//!
//! Everything here is a pure function of its inputs: selection, weights
//! and estimates are byte-identical across `--jobs` values, repeated
//! runs, and `--resume` (pinned by the experiment harness's tests).
//! See DESIGN.md §12 for the estimator derivation and its blind spots.

pub mod cluster;
pub mod estimate;
pub mod interval;

pub use cluster::{cluster, Clustering};
pub use estimate::Estimate;
pub use interval::{
    estimate_slowdowns, fingerprint, interval_key, measure_interval, selection_seed,
    IntervalPlan, SampleSpec,
};
