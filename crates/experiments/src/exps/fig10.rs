//! Figure 10: ASM-Mem vs FRFCFS / PARBS / TCM — unfairness and performance
//! across core counts.

use asm_core::{EstimatorSet, MemPolicy, SystemConfig, ThrottlePolicy};
use asm_dram::SchedulerKind;
use asm_workloads::mix;

use crate::collect::{push_scheme_rows, scheme_table};
use crate::{Scale, Session};

/// Core counts evaluated.
pub const CORE_COUNTS: &[usize] = &[4, 8, 16];

/// One memory-management scheme in the comparison.
#[derive(Debug, Clone, Copy)]
pub struct MemScheme {
    /// Display name.
    pub name: &'static str,
    /// Base memory scheduler.
    pub scheduler: SchedulerKind,
    /// Whether ASM epochs + slowdown-weighted assignment run (ASM-Mem).
    pub asm_mem: bool,
    /// Whether FST source throttling runs.
    pub fst_throttle: bool,
}

/// The schemes of Figure 10 (FRFCFS/PARBS/TCM/ASM-Mem), extended with the
/// ATLAS and BLISS baselines this library also implements.
pub const SCHEMES: &[MemScheme] = &[
    MemScheme {
        name: "FRFCFS",
        scheduler: SchedulerKind::FrFcfs,
        asm_mem: false,
        fst_throttle: false,
    },
    MemScheme {
        name: "FST-throttle",
        scheduler: SchedulerKind::FrFcfs,
        asm_mem: false,
        fst_throttle: true,
    },
    MemScheme {
        name: "ATLAS",
        scheduler: SchedulerKind::Atlas,
        asm_mem: false,
        fst_throttle: false,
    },
    MemScheme {
        name: "BLISS",
        scheduler: SchedulerKind::Bliss,
        asm_mem: false,
        fst_throttle: false,
    },
    MemScheme {
        name: "PARBS",
        scheduler: SchedulerKind::Parbs,
        asm_mem: false,
        fst_throttle: false,
    },
    MemScheme {
        name: "TCM",
        scheduler: SchedulerKind::Tcm,
        asm_mem: false,
        fst_throttle: false,
    },
    MemScheme {
        name: "ASM-Mem",
        scheduler: SchedulerKind::FrFcfs,
        asm_mem: true,
        fst_throttle: false,
    },
];

/// Builds the configuration for one scheme.
#[must_use]
pub fn scheme_config(scale: Scale, scheme: MemScheme) -> SystemConfig {
    let mut c = scale.base_config();
    c.scheduler = scheme.scheduler;
    if scheme.asm_mem {
        c.estimators = EstimatorSet::asm_only();
        c.epochs_enabled = true;
        c.mem_policy = MemPolicy::SlowdownWeighted;
    } else {
        c.estimators = EstimatorSet::none();
        c.epochs_enabled = false;
        c.mem_policy = MemPolicy::Uniform;
    }
    if scheme.fst_throttle {
        c.estimators.fst = true;
        c.throttle_policy = ThrottlePolicy::Fst {
            unfairness_threshold: 1.4,
        };
    }
    c
}

/// Runs the Figure 10 comparison.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 10: ASM-Mem vs FRFCFS / PARBS / TCM ===");
    let schemes: Vec<(&str, SystemConfig)> = SCHEMES
        .iter()
        .map(|&scheme| (scheme.name, scheme_config(scale, scheme)))
        .collect();
    let mut table = scheme_table();
    for &cores in CORE_COUNTS {
        let workloads = mix::binned_mixes(
            scale.workloads_for(cores),
            cores,
            scale.seed ^ (0x10 << 8) ^ cores as u64,
        );
        // The schemes differ in scheduler or estimator set, which shape
        // the trajectory from cycle 0, so their warmup keys differ and
        // nothing is fork-shared — the campaign still buys `--resume`
        // across every run of an interrupted sweep.
        push_scheme_rows(session, &mut table, cores, &schemes, &workloads, &scale);
    }
    session.emit("fig10", &table);
    println!("Expected shape: ASM-Mem achieves the lowest unfairness with comparable");
    println!("performance; its advantage grows with core count.");
}
