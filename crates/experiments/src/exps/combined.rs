//! §7.2 "Combining ASM-Cache and ASM-Mem": the coordinated
//! ASM-Cache-Mem scheme vs the strongest prior combination (PARBS + UCP).

use asm_core::{CachePolicy, EstimatorSet, MemPolicy, SystemConfig};
use asm_dram::SchedulerKind;
use asm_workloads::mix;

use crate::collect::{push_scheme_rows, scheme_table};
use crate::{Scale, Session};

fn asm_cache_mem(scale: Scale) -> SystemConfig {
    let mut c = scale.base_config();
    c.estimators = EstimatorSet::asm_only();
    c.epochs_enabled = true;
    c.cache_policy = CachePolicy::AsmCache;
    c.mem_policy = MemPolicy::SlowdownWeighted;
    c
}

fn parbs_ucp(scale: Scale) -> SystemConfig {
    let mut c = scale.base_config();
    c.estimators = EstimatorSet::none();
    c.epochs_enabled = false;
    c.scheduler = SchedulerKind::Parbs;
    c.cache_policy = CachePolicy::Ucp;
    c
}

fn baseline(scale: Scale) -> SystemConfig {
    let mut c = parbs_ucp(scale);
    c.scheduler = SchedulerKind::FrFcfs;
    c.cache_policy = CachePolicy::None;
    c
}

/// Runs the combined-scheme comparison (16-core, plus 8-core for context).
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== ASM-Cache-Mem vs PARBS+UCP (combined cache + memory management) ===");
    let schemes = [
        ("FRFCFS+NoPart", baseline(scale)),
        ("PARBS+UCP", parbs_ucp(scale)),
        ("ASM-Cache-Mem", asm_cache_mem(scale)),
    ];
    let mut table = scheme_table();
    for cores in [8usize, 16] {
        let workloads = mix::binned_mixes(
            scale.workloads_for(cores),
            cores,
            scale.seed ^ 0xC0DE ^ cores as u64,
        );
        push_scheme_rows(session, &mut table, cores, &schemes, &workloads, &scale);
    }
    session.emit("combined", &table);
    println!("Paper: ASM-Cache-Mem improves fairness by 14.6% over PARBS+UCP on 16-core");
    println!("1-channel, with performance within 1%.");
}
