//! The parallel harness's core guarantee, pinned as tests: for any
//! `--jobs` value the experiment output is **byte-identical** to the
//! sequential run. Workers only simulate; every statistics fold happens
//! sequentially on the caller's thread in submission order, so `jobs` is
//! schedule-only state (see DESIGN.md §8).

use asm_core::EstimatorSet;
use asm_experiments::collect::{collect_accuracy, exact, mech_outcome, pct};
use asm_experiments::plan::{cross, run_campaign};
use asm_experiments::Scale;
use asm_metrics::Table;
use asm_workloads::{mix, suite};

/// Renders the fig2-style accuracy table for `jobs` workers, returning
/// the exact strings the CLI would print (table) and export (CSV).
fn accuracy_table(scale: &Scale, jobs: usize) -> (String, String) {
    let mut config = scale.base_config();
    config.estimators = EstimatorSet::all();
    let workloads = mix::random_mixes(scale.workloads, 4, scale.seed);
    let results = run_campaign(&cross(&[config], &workloads, scale.cycles), jobs);
    let stats = collect_accuracy(&results, scale.warmup_quanta);

    let mut table = Table::new(vec![
        "benchmark".into(),
        "FST".into(),
        "PTCA".into(),
        "ASM".into(),
    ]);
    for p in suite::all() {
        let name = p.name();
        if stats.mean_error_for_app("ASM", name).is_none() {
            continue;
        }
        table.row(vec![
            name.into(),
            pct(stats.mean_error_for_app("FST", name)),
            pct(stats.mean_error_for_app("PTCA", name)),
            pct(stats.mean_error_for_app("ASM", name)),
        ]);
    }
    table.row(vec![
        "AVERAGE".into(),
        pct(stats.mean_error("FST")),
        pct(stats.mean_error("PTCA")),
        pct(stats.mean_error("ASM")),
    ]);
    (table.to_string(), table.to_csv())
}

fn small_scale() -> Scale {
    let mut scale = Scale::tiny();
    scale.workloads = 4; // enough to actually spread across 4 workers
    scale
}

#[test]
fn accuracy_sweep_is_byte_identical_across_job_counts() {
    let scale = small_scale();
    let (table_seq, csv_seq) = accuracy_table(&scale, 1);
    let (table_par, csv_par) = accuracy_table(&scale, 4);
    assert_eq!(table_seq, table_par, "rendered table must not depend on --jobs");
    assert_eq!(csv_seq, csv_par, "CSV export must not depend on --jobs");
    // Sanity: the sweep produced real rows, not an empty table.
    assert!(table_seq.lines().count() > 2, "{table_seq}");
}

#[test]
fn mechanism_eval_is_bitwise_identical_across_job_counts() {
    let scale = small_scale();
    let config = scale.base_config();
    let workloads = mix::random_mixes(scale.workloads, 2, scale.seed + 1);
    let eval = |jobs| {
        let runs = cross(std::slice::from_ref(&config), &workloads, scale.cycles);
        let results = run_campaign(&runs, jobs);
        let slowdowns: Vec<_> = results.iter().map(|r| exact(&r.whole_run_slowdowns)).collect();
        mech_outcome(&slowdowns)
    };
    let (seq, par) = (eval(1), eval(4));
    // Bitwise f64 equality: the sequential fold must see the exact same
    // values in the exact same order regardless of worker scheduling.
    assert_eq!(seq.unfairness.value.to_bits(), par.unfairness.value.to_bits());
    assert_eq!(
        seq.harmonic_speedup.value.to_bits(),
        par.harmonic_speedup.value.to_bits()
    );
    assert!(seq.unfairness.value.is_finite() && seq.unfairness.value >= 1.0);
}
