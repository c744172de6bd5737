//! Resource-management mechanisms built on slowdown estimates (§7) and the
//! prior-work baselines they are compared against.
//!
//! - [`asm_cache`]: ASM-Cache (§7.1) — marginal *slowdown* utility cache
//!   partitioning.
//! - [`ucp`]: Utility-based Cache Partitioning \[56\] — marginal *miss*
//!   utility.
//! - [`mcfq`]: simplified MCFQ \[27\] — MLP- and friendliness-aware
//!   partitioning.
//! - [`qos`]: ASM-QoS and Naive-QoS (§7.3) — soft slowdown guarantees.
//! - [`asm_mem`]: ASM-Mem (§7.2) — slowdown-proportional epoch assignment.
//! - [`billing`]: fair (alone-equivalent) cloud pricing (§7.4).
//! - [`migration`]: slowdown-driven migration and admission control (§7.5).
//! - [`throttle`]: FST-style source throttling (§8).
//!
//! The cache, memory and throttling mechanisms act at quantum boundaries
//! only, and all through one pure function: [`decide`] maps a
//! configuration's [`BoundaryPolicies`] and the boundary's
//! [`BoundaryInputs`] to the [`BoundaryDecision`] the system applies.

pub mod asm_cache;
pub mod asm_mem;
pub mod billing;
pub mod mcfq;
pub mod migration;
pub mod qos;
pub mod throttle;
pub mod ucp;

use ::asm_cache::{AuxiliaryTagStore, WayPartition};
use asm_simcore::Cycle;

use crate::config::{CachePolicy, MemPolicy, SystemConfig, ThrottlePolicy};
use crate::system::AppQuantumStats;

/// The three policies a configuration applies at quantum boundaries —
/// the only part of a [`SystemConfig`] the simulation reads *after*
/// construction, and only inside the boundary (see [`decide`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryPolicies {
    /// Cache-allocation mechanism.
    pub cache: CachePolicy,
    /// Epoch-assignment mechanism.
    pub mem: MemPolicy,
    /// Source-throttling mechanism.
    pub throttle: ThrottlePolicy,
}

impl BoundaryPolicies {
    /// The boundary policies of `config`.
    #[must_use]
    pub fn of(config: &SystemConfig) -> Self {
        BoundaryPolicies {
            cache: config.cache_policy,
            mem: config.mem_policy,
            throttle: config.throttle_policy,
        }
    }
}

/// What a quantum boundary shows the policies: the closing quantum's
/// ATS/cache statistics and ASM's estimates. Borrowed from the system for
/// the duration of the boundary; evaluating a policy never changes it.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryInputs<'a> {
    /// Per-application auxiliary tag stores (utility curves).
    pub ats: &'a [AuxiliaryTagStore],
    /// Per-application shared-cache statistics of the closing quantum.
    pub qstats: &'a [AppQuantumStats],
    /// ASM's slowdown estimates (`None` when ASM is not instantiated).
    pub asm_estimates: Option<&'a [f64]>,
    /// ASM's `CAR_alone` estimates (`None` when ASM is not instantiated).
    pub car_alone: Option<&'a [f64]>,
    /// Quantum length Q.
    pub quantum: Cycle,
    /// LLC hit latency.
    pub llc_latency: Cycle,
    /// LLC associativity.
    pub ways: usize,
}

/// Everything the boundary policies change in a system: two systems in
/// the same pre-boundary state that take equal decisions are in the same
/// post-boundary state (DESIGN.md §11).
#[derive(Debug, Clone)]
pub struct BoundaryDecision {
    /// The way partition to install; `None` leaves the cache as it is
    /// (and is recorded as such), which is not what installing any
    /// `Some(p)` does — the two never compare equal.
    pub partition: Option<WayPartition>,
    /// Next quantum's epoch-assignment weights.
    pub epoch_weights: Vec<f64>,
    /// The throttling policy, verbatim: its outcome depends on estimates
    /// the decision does not carry, so only equal policies (threshold
    /// bit pattern included) are known to act alike on equal inputs.
    pub throttle: ThrottlePolicy,
}

impl PartialEq for BoundaryDecision {
    /// Bitwise on the floats: weights that differ only in a NaN payload or
    /// a zero's sign are different simulations as far as replay goes.
    fn eq(&self, other: &Self) -> bool {
        fn bits(w: &[f64]) -> impl Iterator<Item = u64> + '_ {
            w.iter().map(|v| v.to_bits())
        }
        let throttle_bits = |t: ThrottlePolicy| match t {
            ThrottlePolicy::None => None,
            ThrottlePolicy::Fst {
                unfairness_threshold,
            } => Some(unfairness_threshold.to_bits()),
        };
        self.partition == other.partition
            && bits(&self.epoch_weights).eq(bits(&other.epoch_weights))
            && throttle_bits(self.throttle) == throttle_bits(other.throttle)
    }
}

/// What `policies` decide at a quantum boundary that shows them `inputs`.
/// Pure: the system evaluates its own policies with it and, for the
/// campaign planner, any number of sibling policies on the same inputs.
#[must_use]
pub fn decide(policies: BoundaryPolicies, inputs: &BoundaryInputs<'_>) -> BoundaryDecision {
    let BoundaryInputs {
        ats,
        qstats,
        asm_estimates,
        car_alone,
        quantum,
        llc_latency,
        ways,
    } = *inputs;
    let partition = match policies.cache {
        CachePolicy::None => None,
        CachePolicy::Ucp => Some(ucp::partition(ats, ways)),
        CachePolicy::Mcfq => Some(mcfq::partition(ats, qstats, ways)),
        CachePolicy::AsmCache => Some(asm_cache::partition(
            ats,
            qstats,
            car_alone,
            quantum,
            llc_latency,
            ways,
        )),
        CachePolicy::AsmQos(qos_cfg) => Some(qos::asm_qos_partition(
            qos_cfg,
            ats,
            qstats,
            car_alone,
            quantum,
            llc_latency,
            ways,
        )),
        CachePolicy::NaiveQos(target) => Some(qos::naive_qos_partition(target, ats.len(), ways)),
    };
    let epoch_weights = match policies.mem {
        MemPolicy::Uniform => vec![1.0; ats.len()],
        MemPolicy::SlowdownWeighted => asm_mem::weights(asm_estimates, ats.len()),
    };
    BoundaryDecision {
        partition,
        epoch_weights,
        throttle: policies.throttle,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use ::asm_cache::CacheGeometry;
    use asm_simcore::LineAddr;

    /// A small ATS pre-populated so that `hits_with_ways(n)` grows with `n`
    /// at a controllable rate: `reuses` hits at stack positions spread over
    /// `depth` ways.
    pub fn ats_with_curve(ways: usize, depth: usize, reuses: usize) -> AuxiliaryTagStore {
        let geom = CacheGeometry::new(4, ways);
        let mut ats = AuxiliaryTagStore::new(geom, None);
        // Touch `depth` distinct lines mapping to set 0, then re-touch them
        // in reverse order so hits land at varying stack depths.
        for k in 0..depth as u64 {
            ats.access(LineAddr::new(k * 4));
        }
        for _ in 0..reuses {
            for k in (0..depth as u64).rev() {
                ats.access(LineAddr::new(k * 4));
            }
        }
        ats
    }

    pub fn stats(hits: u64, misses: u64) -> AppQuantumStats {
        AppQuantumStats {
            accesses: hits + misses,
            hits,
            misses,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::*;

    fn policies(cache: CachePolicy, mem: MemPolicy) -> BoundaryPolicies {
        BoundaryPolicies {
            cache,
            mem,
            throttle: ThrottlePolicy::None,
        }
    }

    fn inputs<'a>(
        ats: &'a [AuxiliaryTagStore],
        qstats: &'a [AppQuantumStats],
        asm_estimates: Option<&'a [f64]>,
    ) -> BoundaryInputs<'a> {
        BoundaryInputs {
            ats,
            qstats,
            asm_estimates,
            car_alone: None,
            quantum: 1_000_000,
            llc_latency: 20,
            ways: 8,
        }
    }

    #[test]
    fn neutral_policies_leave_the_cache_alone_and_weigh_uniformly() {
        let ats = vec![ats_with_curve(8, 4, 10), ats_with_curve(8, 2, 1)];
        let qs = vec![stats(100, 10), stats(10, 100)];
        let d = decide(
            policies(CachePolicy::None, MemPolicy::Uniform),
            &inputs(&ats, &qs, Some(&[1.0, 3.0])),
        );
        assert!(d.partition.is_none());
        assert_eq!(d.epoch_weights, vec![1.0; 2]);
    }

    #[test]
    fn ucp_policy_produces_full_partition() {
        let ats = vec![ats_with_curve(8, 4, 10), ats_with_curve(8, 2, 1)];
        let qs = vec![stats(100, 10), stats(10, 100)];
        let d = decide(
            policies(CachePolicy::Ucp, MemPolicy::Uniform),
            &inputs(&ats, &qs, None),
        );
        assert_eq!(d.partition.unwrap().total_ways(), 8);
    }

    #[test]
    fn decisions_compare_by_outcome_not_by_policy() {
        let ats = vec![ats_with_curve(8, 4, 10), ats_with_curve(8, 2, 1)];
        let qs = vec![stats(100, 10), stats(10, 100)];
        let with = |cache, mem, est| decide(policies(cache, mem), &inputs(&ats, &qs, est));
        // Slowdown-weighted epochs fall back to uniform without valid
        // estimates: a different policy, the same decision.
        assert_eq!(
            with(CachePolicy::Ucp, MemPolicy::SlowdownWeighted, None),
            with(CachePolicy::Ucp, MemPolicy::Uniform, None)
        );
        assert_ne!(
            with(CachePolicy::Ucp, MemPolicy::SlowdownWeighted, Some(&[1.0, 3.0])),
            with(CachePolicy::Ucp, MemPolicy::Uniform, Some(&[1.0, 3.0]))
        );
        // An even split installed is not "no partition".
        let naive = with(CachePolicy::NaiveQos(asm_simcore::AppId::new(0)), MemPolicy::Uniform, None);
        assert_ne!(naive, with(CachePolicy::None, MemPolicy::Uniform, None));
        // Throttling is compared verbatim, threshold bits included.
        let throttled = |t| BoundaryDecision {
            throttle: ThrottlePolicy::Fst {
                unfairness_threshold: t,
            },
            ..naive.clone()
        };
        assert_eq!(throttled(1.4), throttled(1.4));
        assert_ne!(throttled(1.4), throttled(1.5));
        assert_ne!(throttled(1.4), naive);
    }
}
