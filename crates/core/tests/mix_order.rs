//! Mix-order metamorphic check for the cycle tier (DESIGN.md §3).
//!
//! Reversing a mix does **not** permute the cycle tier's per-app outputs
//! bitwise. An application's address stream (its RNG seed and its region
//! of the address space, hence its LLC sets and DRAM banks and rows), its
//! instruction-mix draws, the epoch-owner draw and the order cores tick
//! in are all indexed by slot, not by profile; DESIGN.md §3 lists them.
//! This test pins that finding, so a change that makes the cycle tier
//! order-free fails here and tightens the check to a bitwise permutation.
//! It also pins, bitwise, the weaker properties that do hold under
//! reversal: the quantum grid and estimator set are unchanged, the names
//! permute, and in both orders every ledger row and blame row conserves
//! its quantum, with each victim's off-diagonal blame equal to its
//! interference components.

use asm_core::{
    Component, EstimatorSet, RunOptions, RunResult, Runner, System, SystemConfig, COMPONENTS,
};
use asm_cpu::AppProfile;
use asm_simcore::Cycle;
use asm_workloads::suite;

const MIX: [&str; 4] = ["mcf_like", "libquantum_like", "h264ref_like", "soplex_like"];
const CYCLES: Cycle = 200_000;

fn config() -> SystemConfig {
    let mut c = SystemConfig::default();
    c.quantum = 50_000;
    c.epoch = 1_000;
    c.estimators = EstimatorSet::all();
    c
}

/// Everything the cycle tier reports about slot `i`, as bits: per quantum
/// its retired count, `CAR_shared`, every estimate and its ledger row and
/// blame row (offenders in `order`), then its whole-run slowdown.
fn per_app(sys: &System, run: &RunResult, i: usize, order: &[usize]) -> Vec<u64> {
    let mut out = Vec::new();
    for r in sys.records() {
        out.push(r.retired_end[i] - r.retired_start[i]);
        out.push(r.car_shared[i].to_bits());
        out.extend(r.estimates.iter().map(|(_, e)| e[i].to_bits()));
    }
    for q in sys.attrib_quanta().expect("attribution on") {
        out.extend((0..COMPONENTS).map(|k| q.ledger[i * COMPONENTS + k]));
        out.extend(order.iter().map(|&o| q.blamed(i, o)));
    }
    out.push(run.whole_run_slowdowns[i].to_bits());
    out
}

/// The shared system (attribution on) and the runner's result for `apps`.
fn simulate(apps: &[AppProfile]) -> (System, RunResult) {
    let mut sys = System::new(apps, config());
    sys.enable_attribution();
    sys.run_for(CYCLES);
    let opts = RunOptions {
        attrib: true,
        ..RunOptions::default()
    };
    (sys, Runner::new(config()).run_with(apps, CYCLES, opts))
}

#[test]
fn reversing_a_mix_keeps_the_slot_free_structure_but_not_the_per_app_bits() {
    let forward: Vec<AppProfile> = MIX
        .iter()
        .map(|m| suite::by_name(m).expect("suite profile"))
        .collect();
    let reversed: Vec<AppProfile> = forward.iter().rev().cloned().collect();
    let (fwd_sys, fwd) = simulate(&forward);
    let (rev_sys, rev) = simulate(&reversed);
    let n = MIX.len();

    // What holds bitwise.
    let names: Vec<&str> = rev.app_names.iter().rev().map(String::as_str).collect();
    assert_eq!(names, fwd.app_names);
    assert_eq!(fwd.estimator_names(), rev.estimator_names());
    let grid = |sys: &System| -> Vec<(Cycle, Cycle)> {
        sys.attrib_quanta()
            .expect("attribution on")
            .iter()
            .map(|q| (q.start, q.end))
            .collect()
    };
    assert_eq!(grid(&fwd_sys), grid(&rev_sys));
    let records = |sys: &System| -> Vec<(Cycle, Cycle)> {
        sys.records()
            .iter()
            .map(|r| (r.start_cycle, r.end_cycle))
            .collect()
    };
    assert_eq!(records(&fwd_sys), records(&rev_sys));
    for sys in [&fwd_sys, &rev_sys] {
        for q in sys.attrib_quanta().expect("attribution on") {
            let len = q.end - q.start;
            for v in 0..n {
                let row: Cycle = Component::ALL.iter().map(|&c| q.component(v, c)).sum();
                assert_eq!(row, len, "ledger row {v} does not conserve");
                assert_eq!(
                    (0..n).map(|o| q.blamed(v, o)).sum::<Cycle>(),
                    len,
                    "blame row {v}"
                );
                let interference: Cycle = Component::ALL
                    .iter()
                    .filter(|c| c.is_interference())
                    .map(|&c| q.component(v, c))
                    .sum();
                let blamed: Cycle = (0..n).filter(|&o| o != v).map(|o| q.blamed(v, o)).sum();
                assert_eq!(blamed, interference, "victim {v}: blame vs interference");
            }
        }
    }

    // What does not: slot i of the forward run is slot n-1-i of the
    // reversed one, and its outputs are not the same bits.
    let identity: Vec<usize> = (0..n).collect();
    let mirrored: Vec<usize> = (0..n).rev().collect();
    let fwd_apps: Vec<Vec<u64>> = (0..n)
        .map(|i| per_app(&fwd_sys, &fwd, i, &identity))
        .collect();
    let rev_apps: Vec<Vec<u64>> = (0..n)
        .map(|i| per_app(&rev_sys, &rev, n - 1 - i, &mirrored))
        .collect();
    assert!(
        fwd_apps != rev_apps,
        "reversing the mix now permutes every per-app output bitwise: the slot-indexed \
         state of DESIGN.md §3 is gone, so assert the permutation instead"
    );
}
