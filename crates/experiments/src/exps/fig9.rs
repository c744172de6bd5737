//! Figure 9: ASM-Cache vs no partitioning, UCP and MCFQ — unfairness
//! (maximum slowdown) and performance (harmonic speedup) across core
//! counts.

use asm_core::{CachePolicy, EstimatorSet, SystemConfig};
use asm_workloads::mix;

use crate::collect::{push_scheme_rows, scheme_table};
use crate::{Scale, Session};

/// Core counts evaluated (the paper uses 4/8/16).
pub const CORE_COUNTS: &[usize] = &[4, 8, 16];

/// Builds the configuration for one cache policy.
///
/// Every scheme (including the baselines) runs on an *identical* memory
/// substrate — FR-FCFS with uniform epoch prioritisation and the ASM
/// estimator observing — so the comparison isolates the cache-allocation
/// decision itself. (In the paper the epoch substrate perturbs
/// performance/fairness by only ~1%; our synthetic mixes are more
/// memory-intensive, where uniform epochs are themselves a mild fairness
/// mechanism, so giving them to the baselines too keeps the comparison
/// honest. The `ablation` bench quantifies the epoch substrate alone.)
#[must_use]
pub fn policy_config(scale: Scale, policy: CachePolicy) -> SystemConfig {
    let mut c = scale.base_config();
    c.cache_policy = policy;
    c.estimators = EstimatorSet::asm_only();
    c.epochs_enabled = true;
    c
}

/// Runs the Figure 9 comparison.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 9: ASM-Cache vs NoPart / UCP / MCFQ ===");
    let schemes = [
        ("NoPart", CachePolicy::None),
        ("UCP", CachePolicy::Ucp),
        ("MCFQ", CachePolicy::Mcfq),
        ("ASM-Cache", CachePolicy::AsmCache),
    ]
    .map(|(name, policy)| (name, policy_config(scale, policy)));
    let mut table = scheme_table();
    for &cores in CORE_COUNTS {
        let workloads = mix::binned_mixes(
            scale.workloads_for(cores),
            cores,
            scale.seed ^ (0x9 << 8) ^ cores as u64,
        );
        // All four policies agree on the prefix-relevant configuration,
        // so the campaign warms each workload once and forks it into
        // every policy — the planner's showcase (DESIGN.md §11).
        push_scheme_rows(session, &mut table, cores, &schemes, &workloads, &scale);
    }
    session.emit("fig9", &table);
    println!("Expected shape: ASM-Cache has the lowest unfairness at every core count");
    println!("with comparable-or-better harmonic speedup; gains grow with core count.");
}
