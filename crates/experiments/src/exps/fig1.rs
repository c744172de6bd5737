//! Figure 1: cache access rate vs performance, each application co-run
//! with a hog of varying aggressiveness.
//!
//! Validates ASM's core observation (§3.1): normalised performance is
//! proportional to normalised shared-cache access rate. We report, per
//! application and hog level, performance and CAR normalised to the alone
//! run, plus the Pearson correlation between the two across levels.

use asm_core::{EstimatorSet, System, SystemConfig};
use asm_metrics::Table;
use asm_simcore::AppId;
use asm_workloads::{hog_profile, suite};

use crate::{Scale, Session};

/// Hog aggressiveness levels swept.
const HOG_LEVELS: usize = 6;

fn quiet_config(scale: Scale) -> SystemConfig {
    let mut c = scale.base_config();
    c.estimators = EstimatorSet::none();
    c.epochs_enabled = false;
    c
}

/// Measures (IPC, CAR) of app slot 0 over the post-warmup portion of a run.
fn measure(sys: &System, scale: Scale) -> (f64, f64) {
    let records = sys.records();
    let measured: Vec<_> = records.iter().skip(scale.warmup_quanta).collect();
    if measured.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let cycles: f64 = measured
        .iter()
        .map(|r| (r.end_cycle - r.start_cycle) as f64)
        .sum();
    let instr: f64 = measured
        .iter()
        .map(|r| (r.retired_end[0] - r.retired_start[0]) as f64)
        .sum();
    let car: f64 = measured
        .iter()
        .map(|r| r.car_shared[0] * (r.end_cycle - r.start_cycle) as f64)
        .sum::<f64>()
        / cycles;
    (instr / cycles, car)
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
}

/// Runs the Figure 1 experiment.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 1: cache access rate vs performance (co-run with hog) ===");
    let config = quiet_config(scale);
    let apps = ["h264ref_like", "bzip2_like", "mcf_like"];
    let mut table = Table::new(vec![
        "app".into(),
        "hog level".into(),
        "norm CAR".into(),
        "norm perf".into(),
    ]);
    // Each (app, hog level) co-run and each alone baseline is independent:
    // fan the per-app sweeps across the pool and assemble the table
    // sequentially from the ordered results.
    let per_app = crate::pool::run_ordered(scale.jobs, &apps, |_, &name| {
        let app = suite::by_name(name).expect("known profile");
        let workload = vec![app, hog_profile(0, HOG_LEVELS)];

        // Alone baseline.
        let mut alone = System::new_alone(&workload, config.clone(), AppId::new(0));
        alone.run_for(scale.cycles);
        let (ipc_alone, car_alone) = measure(&alone, scale);

        let mut cars = Vec::new();
        let mut perfs = Vec::new();
        for level in 0..HOG_LEVELS {
            let workload = vec![
                suite::by_name(name).expect("known profile"),
                hog_profile(level, HOG_LEVELS),
            ];
            let mut sys = System::new(&workload, config.clone());
            sys.run_for(scale.cycles);
            let (ipc, car) = measure(&sys, scale);
            cars.push(car / car_alone);
            perfs.push(ipc / ipc_alone);
            eprint!(".");
        }
        (cars, perfs)
    });
    eprintln!();

    let mut correlations = Vec::new();
    for (name, (cars, perfs)) in apps.iter().zip(&per_app) {
        for level in 0..HOG_LEVELS {
            table.row(vec![
                (*name).into(),
                level.to_string(),
                format!("{:.3}", cars[level]),
                format!("{:.3}", perfs[level]),
            ]);
        }
        correlations.push((*name, pearson(cars, perfs)));
    }
    session.emit("fig1", &table);
    println!("Pearson correlation (norm CAR vs norm perf), paper expectation ~1:");
    for (name, r) in correlations {
        println!("  {name}: r = {r:.3}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_identical_series_is_one() {
        let xs = [0.2, 0.5, 0.9];
        assert!((pearson(&xs, &xs) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_of_anticorrelated_is_minus_one() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys) + 1.0).abs() < 1e-9);
    }
}
