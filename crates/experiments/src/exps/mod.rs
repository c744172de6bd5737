//! One module per paper table/figure.

pub mod ablation;
pub mod accuracy;
pub mod channels;
pub mod combined;
pub mod db;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod matrix;
pub mod mise;
pub mod table3;
pub mod workloads;

use crate::scale::{Scale, Tier, CYCLE, CYCLE_ANALYTIC, CYCLE_SAMPLED};
use crate::session::Session;

/// One row of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI name.
    pub name: &'static str,
    /// One-line description, as the usage text prints it.
    pub about: &'static str,
    /// Entry point.
    pub run: fn(&Session, Scale),
    /// Tiers the experiment accepts (`--tier`).
    pub tiers: &'static [Tier],
    /// Whether `all` runs it.
    pub in_all: bool,
}

/// Every experiment: dispatch, the tier-capability errors, `all` and the
/// usage text all derive from this table. The `all` members come first,
/// in paper order.
#[rustfmt::skip]
pub const TABLE: &[Experiment] = &[
    Experiment { name: "fig1", about: "CAR vs performance correlation (with a hog)", run: fig1::run, tiers: CYCLE, in_all: true },
    Experiment { name: "fig2", about: "per-benchmark error, unsampled ATS", run: |h, s| fig2::run(h, s, false), tiers: CYCLE, in_all: true },
    Experiment { name: "fig3", about: "per-benchmark error, sampled ATS (64 sets)", run: |h, s| fig2::run(h, s, true), tiers: CYCLE, in_all: true },
    Experiment { name: "fig4", about: "error distribution", run: fig4::run, tiers: CYCLE, in_all: true },
    Experiment { name: "fig5", about: "error with a stride prefetcher", run: fig5::run, tiers: CYCLE, in_all: true },
    Experiment { name: "fig6", about: "alone miss-latency distributions (6a and 6b)", run: fig6::run, tiers: CYCLE, in_all: true },
    Experiment { name: "db", about: "database (TPC-C/YCSB-like) workload accuracy", run: db::run, tiers: CYCLE, in_all: true },
    Experiment { name: "mise", about: "MISE vs ASM (section 6.4)", run: mise::run, tiers: CYCLE, in_all: true },
    Experiment { name: "fig7", about: "error vs core count", run: fig7::run, tiers: CYCLE, in_all: true },
    Experiment { name: "fig8", about: "error vs cache capacity", run: fig8::run, tiers: CYCLE, in_all: true },
    Experiment { name: "table3", about: "error vs quantum/epoch lengths", run: table3::run, tiers: CYCLE, in_all: true },
    Experiment { name: "fig9", about: "ASM-Cache vs NoPart/UCP/MCFQ", run: fig9::run, tiers: CYCLE_SAMPLED, in_all: true },
    Experiment { name: "fig10", about: "ASM-Mem vs FRFCFS/PARBS/TCM", run: fig10::run, tiers: CYCLE_SAMPLED, in_all: true },
    Experiment { name: "combined", about: "ASM-Cache-Mem vs PARBS+UCP", run: combined::run, tiers: CYCLE_SAMPLED, in_all: true },
    Experiment { name: "fig11", about: "ASM-QoS slowdown guarantees", run: fig11::run, tiers: CYCLE_SAMPLED, in_all: true },
    Experiment { name: "all", about: "everything above, in order", run: run_all, tiers: CYCLE, in_all: false },
    Experiment { name: "channels", about: "ASM error and ASM-Mem fairness vs channel count", run: channels::run, tiers: CYCLE, in_all: false },
    Experiment { name: "ablation", about: "what each ingredient of the ASM model buys", run: ablation::run, tiers: CYCLE, in_all: false },
    Experiment { name: "matrix", about: "pairwise interference matrix (victim x aggressor)", run: matrix::run, tiers: CYCLE_ANALYTIC, in_all: false },
    Experiment { name: "workloads", about: "the synthetic benchmark suite's parameters", run: workloads::run, tiers: CYCLE, in_all: false },
    Experiment { name: "accuracy", about: "ASM and the analytic/sampled tiers vs the cycle tier, one error measure", run: accuracy::run, tiers: CYCLE, in_all: false },
];

fn run_all(session: &Session, scale: Scale) {
    for e in TABLE.iter().filter(|e| e.in_all) {
        (e.run)(session, scale);
    }
}

/// The table row called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.name == name)
}

/// Names of the experiments that accept `tier`, comma-separated.
#[must_use]
pub fn supporting(tier: Tier) -> String {
    let names: Vec<&str> = TABLE.iter().filter(|e| e.tiers.contains(&tier)).map(|e| e.name).collect();
    names.join(", ")
}
