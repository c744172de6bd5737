//! Soft slowdown guarantees (§7.3).
//!
//! - **ASM-QoS**: give the application of interest the *smallest* way
//!   allocation whose predicted slowdown (via the ASM-Cache model) meets
//!   the bound, then partition the remaining ways among the other
//!   applications with slowdown-utility look-ahead — minimising collateral
//!   damage (Figure 11).
//! - **Naive-QoS**: give the application of interest *all* the ways,
//!   meeting any achievable bound but slowing everyone else maximally.

use asm_cache::{lookahead_partition, AuxiliaryTagStore, BenefitCurves, WayPartition};
use asm_simcore::{AppId, Cycle};

use crate::config::QosConfig;
use crate::mech::asm_cache::slowdown_curve;
use crate::system::AppQuantumStats;

/// Computes the ASM-QoS partition: the minimum allocation meeting
/// `qos.bound` for `qos.target`, ASM-Cache look-ahead for the rest.
///
/// # Panics
///
/// Panics if the target is out of range, inputs misalign, or there are
/// more applications than ways.
#[must_use]
pub fn asm_qos_partition(
    qos: QosConfig,
    ats: &[AuxiliaryTagStore],
    qstats: &[AppQuantumStats],
    car_alone: Option<&[f64]>,
    quantum: Cycle,
    llc_latency: Cycle,
    ways: usize,
) -> WayPartition {
    let n = ats.len();
    let t = qos.target.index();
    assert!(t < n, "QoS target out of range");
    assert_eq!(ats.len(), qstats.len(), "per-app inputs must align");
    assert!(n <= ways, "more applications than ways");

    // Every other application keeps at least one way.
    let max_target_ways = ways - (n - 1);
    let target_car = car_alone.and_then(|c| c.get(t)).copied();
    let curve = slowdown_curve(&ats[t], &qstats[t], target_car, quantum, llc_latency, ways);
    // With nobody to hand the remainder to, the target keeps every way: a
    // partition must cover the whole cache.
    let target_ways = (1..=max_target_ways)
        .find(|&w| n > 1 && curve[w] <= qos.bound)
        .unwrap_or(max_target_ways);

    // Partition the rest with slowdown-utility look-ahead.
    let remaining = ways - target_ways;
    let others: Vec<usize> = (0..n).filter(|&i| i != t).collect();
    let mut alloc = vec![0usize; n];
    alloc[t] = target_ways;
    if !others.is_empty() {
        let mut benefit = BenefitCurves::new(others.len(), remaining + 1);
        for (k, &i) in others.iter().enumerate() {
            let ca = car_alone.and_then(|c| c.get(i)).copied();
            let full = slowdown_curve(&ats[i], &qstats[i], ca, quantum, llc_latency, ways);
            for (v, sd) in benefit.row_mut(k).iter_mut().zip(&full) {
                *v = -sd;
            }
        }
        let sub = lookahead_partition(&benefit, remaining, 1);
        for (k, &i) in others.iter().enumerate() {
            alloc[i] = sub.ways_for(AppId::new(k));
        }
    }
    WayPartition::new(alloc)
}

/// The Naive-QoS partition: all ways to the target, zero to everyone else.
///
/// # Panics
///
/// Panics if the target is out of range.
#[must_use]
pub fn naive_qos_partition(target: AppId, apps: usize, ways: usize) -> WayPartition {
    assert!(target.index() < apps, "QoS target out of range");
    let mut alloc = vec![0usize; apps];
    alloc[target.index()] = ways;
    WayPartition::new(alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mech::testutil::{ats_with_curve, stats};

    fn curvy_inputs() -> (Vec<AuxiliaryTagStore>, Vec<AppQuantumStats>) {
        let ats = vec![
            ats_with_curve(16, 10, 20),
            ats_with_curve(16, 6, 10),
            ats_with_curve(16, 4, 5),
            ats_with_curve(16, 2, 2),
        ];
        let mut qs = Vec::new();
        for _ in 0..4 {
            let mut s = stats(100, 100);
            s.miss_time.add(0, 40_000);
            s.hit_time.add(0, 2_000);
            qs.push(s);
        }
        (ats, qs)
    }

    #[test]
    fn naive_gives_everything_to_target() {
        let p = naive_qos_partition(AppId::new(2), 4, 16);
        assert_eq!(p.ways_for(AppId::new(2)), 16);
        assert_eq!(p.total_ways(), 16);
        for i in [0, 1, 3] {
            assert_eq!(p.ways_for(AppId::new(i)), 0);
        }
    }

    #[test]
    fn tighter_bound_means_more_ways_for_target() {
        let (ats, qs) = curvy_inputs();
        let car = [0.02, 0.01, 0.01, 0.01];
        let loose = asm_qos_partition(
            QosConfig {
                target: AppId::new(0),
                bound: 10.0,
            },
            &ats,
            &qs,
            Some(&car),
            1_000_000,
            20,
            16,
        );
        let tight = asm_qos_partition(
            QosConfig {
                target: AppId::new(0),
                bound: 1.01,
            },
            &ats,
            &qs,
            Some(&car),
            1_000_000,
            20,
            16,
        );
        assert!(tight.ways_for(AppId::new(0)) >= loose.ways_for(AppId::new(0)));
    }

    #[test]
    fn others_always_keep_a_way() {
        let (ats, qs) = curvy_inputs();
        let car = [0.05, 0.01, 0.01, 0.01];
        let p = asm_qos_partition(
            QosConfig {
                target: AppId::new(0),
                bound: 0.5,
            }, // unreachable bound
            &ats,
            &qs,
            Some(&car),
            1_000_000,
            20,
            16,
        );
        assert_eq!(p.total_ways(), 16);
        for i in 1..4 {
            assert!(p.ways_for(AppId::new(i)) >= 1);
        }
        assert_eq!(p.ways_for(AppId::new(0)), 13); // 16 - 3 others
    }

    #[test]
    fn a_lone_target_keeps_every_way() {
        // One application and a bound a single way already meets: the
        // partition must still cover the whole cache.
        let (ats, qs) = curvy_inputs();
        let qos = QosConfig {
            target: AppId::new(0),
            bound: 10.0,
        };
        let p = asm_qos_partition(qos, &ats[..1], &qs[..1], None, 1_000_000, 20, 16);
        assert_eq!(p.as_slice(), &[16]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_rejected() {
        let _ = naive_qos_partition(AppId::new(9), 4, 16);
    }
}
