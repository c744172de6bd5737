//! Figure 6: distribution of *alone* miss service times — actually
//! measured (alone runs) vs estimated by FST, PTCA and ASM — without (6a)
//! and with (6b) ATS sampling.
//!
//! The paper uses this to explain why epoch-based aggregation works: ASM's
//! estimated distribution tracks the measured one, while per-request
//! subtraction (FST/PTCA) distorts it, especially under sampling.

use asm_cpu::AppProfile;
use asm_metrics::Table;
use asm_simcore::Histogram;
use asm_workloads::{mix, suite};

use crate::plan;
use crate::{Scale, Session};

/// Histogram geometry: 40-cycle (~7.5 ns at 5.3 GHz) buckets up to 1,200
/// cycles.
const BUCKET_CYCLES: f64 = 40.0;
const BUCKETS: usize = 30;

/// The most memory-intensive third of the suite (the paper uses its 30
/// most memory-intensive workloads).
fn intensive_pool() -> Vec<AppProfile> {
    let mut all = suite::all();
    all.sort_by_key(|p| std::cmp::Reverse(p.mem_per_kilo()));
    all.truncate(all.len() / 3);
    all
}

fn merged(hists: Vec<Histogram>) -> Option<Histogram> {
    hists.into_iter().reduce(|mut acc, h| {
        acc.merge(&h);
        acc
    })
}

fn run_one(session: &Session, scale: Scale, sampled: bool) {
    let label = if sampled {
        "6b (sampled ATS)"
    } else {
        "6a (no sampling)"
    };
    println!("\n--- Figure {label} ---");
    let mut config = if sampled {
        super::fig2::small_filter_config(scale)
    } else {
        scale.unsampled_config()
    };
    config.latency_hist = Some((BUCKET_CYCLES, BUCKETS));

    let pool = intensive_pool();
    let workloads = mix::mixes_from_pool(&pool, scale.workloads.min(10), 4, scale.seed ^ 0x66);

    let mut actual = Vec::new();
    let mut per_estimator: Vec<(String, Vec<Histogram>)> = Vec::new();
    // Simulate in parallel, merge histograms sequentially in workload order.
    let runs = plan::cross(&[config], &workloads, scale.cycles);
    for r in plan::run_campaign_in(session, &runs, scale.jobs) {
        if let Some(h) = r.alone_latency_hist {
            actual.push(h);
        }
        for (name, h) in r.estimator_latency_hists {
            match per_estimator.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(h),
                None => per_estimator.push((name, vec![h])),
            }
        }
    }

    let actual = merged(actual);
    let estimated: Vec<(String, Option<Histogram>)> = per_estimator
        .into_iter()
        .map(|(n, v)| (n, merged(v)))
        .collect();

    let mut table = Table::new(vec![
        "latency (ns)".into(),
        "measured".into(),
        "ASM".into(),
        "FST".into(),
        "PTCA".into(),
    ]);
    let frac = |h: &Option<Histogram>, i: usize| -> String {
        match h {
            Some(h) => format!("{:.1}%", h.fractions().nth(i).unwrap_or(0.0) * 100.0),
            None => "-".to_owned(),
        }
    };
    let by_name = |name: &str| -> Option<Histogram> {
        estimated
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, h)| h.clone())
    };
    let (asm, fst, ptca) = (by_name("ASM"), by_name("FST"), by_name("PTCA"));
    // 5.3 GHz core: 1 cycle = 0.189 ns.
    let ns_per_cycle = 1.0 / 5.3;
    for i in 0..BUCKETS {
        let lo = i as f64 * BUCKET_CYCLES * ns_per_cycle;
        let hi = (i + 1) as f64 * BUCKET_CYCLES * ns_per_cycle;
        table.row(vec![
            format!("[{lo:5.1}, {hi:5.1})"),
            frac(&actual, i),
            frac(&asm, i),
            frac(&fst, i),
            frac(&ptca, i),
        ]);
    }
    session.emit(if sampled { "fig6b" } else { "fig6a" }, &table);
    println!(
        "Expected shape: ASM's column tracks 'measured'; FST/PTCA deviate{}.",
        if sampled { ", PTCA most" } else { "" }
    );
}

/// Runs the Figure 6 experiment (both panels).
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 6: alone miss-service-time distributions ===");
    run_one(session, scale, false);
    run_one(session, scale, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensive_pool_is_top_third() {
        let pool = intensive_pool();
        assert_eq!(pool.len(), suite::all().len() / 3);
        let min_pool = pool.iter().map(AppProfile::mem_per_kilo).min().unwrap();
        // Every excluded profile is no more intensive than the pool floor.
        for p in suite::all() {
            if !pool.iter().any(|q| q.name() == p.name()) {
                assert!(p.mem_per_kilo() <= min_pool);
            }
        }
    }
}
