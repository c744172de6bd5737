//! The metric catalogue: every name this benchmark prints, with its unit
//! and direction. `BENCHMARK.json` mirrors it (`run.sh --selftest`
//! compares the two); benchmark/README.md says what each one measures
//! and which end-to-end metric each layer metric should move.

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the simulator sees; printed by the untraced pass, on
/// every workload.
pub const END_TO_END: [Def; 4] = [
    def("setup_s", "s", "lower"),
    def("wall_s", "s", "lower"),
    def("sim_mcycles_per_s", "Mcycles/s", "higher"),
    def("runs_per_s", "1/s", "higher"),
];

/// Costs and counts of single layers; printed by the traced pass. A
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Def; 57] = [
    def("host.peak_rss_mb", "MB", "lower"),
    def("cpu.core_tick_ns", "ns", "lower"),
    def("cpu.retired_minstr", "Minstr", "higher"),
    def("cpu.mem_ops", "count", "higher"),
    def("cpu.rob_stalls", "count", "lower"),
    def("cache.llc_access_ns", "ns", "lower"),
    def("cache.llc_access_part_ns", "ns", "lower"),
    def("cache.ats_access_ns", "ns", "lower"),
    def("cache.pollution_ns", "ns", "lower"),
    def("cache.lookahead_us", "us", "lower"),
    def("cache.llc_accesses", "count", "higher"),
    def("cache.llc_misses", "count", "lower"),
    def("cache.llc_hit_ratio", "ratio", "higher"),
    def("dram.ns_per_request", "ns", "lower"),
    def("dram.tick_idle_ns", "ns", "lower"),
    def("dram.requests", "count", "lower"),
    def("dram.row_hit_ratio", "ratio", "higher"),
    def("dram.read_latency_cycles_p50", "cycles", "lower"),
    def("core.system.ns_per_sim_cycle", "ns", "lower"),
    def("core.system.ns_per_exec_cycle", "ns", "lower"),
    def("core.system.exec_frac", "ratio", "lower"),
    def("core.system.new_ms", "ms", "lower"),
    def("core.system.quantum_ms_p50", "ms", "lower"),
    def("core.system.quantum_ms_max", "ms", "lower"),
    def("core.estimator.asm_ns_per_cycle", "ns", "lower"),
    def("core.estimator.extra_ns_per_cycle", "ns", "lower"),
    def("core.mech.extra_ns_per_cycle", "ns", "lower"),
    def("asm_err_pct", "%", "lower"),
    def("core.estimator.fst_err_pct", "%", "lower"),
    def("core.estimator.ptca_err_pct", "%", "lower"),
    def("core.estimator.mise_err_pct", "%", "lower"),
    def("attrib.extra_ns_per_cycle", "ns", "lower"),
    def("attrib.on_over_off_pct", "%", "lower"),
    def("attrib.interference_share", "ratio", "lower"),
    def("telemetry.extra_ns_per_cycle", "ns", "lower"),
    def("telemetry.take_ms", "ms", "lower"),
    def("core.runner.alone_runs_s", "s", "lower"),
    def("core.checkpoint.capture_ms", "ms", "lower"),
    def("core.checkpoint.resume_ms", "ms", "lower"),
    def("core.checkpoint.snapshot_kb", "kB", "lower"),
    def("simcore.persist.roundtrip_mb_per_s", "MB/s", "higher"),
    def("experiments.plan.alone_s", "s", "lower"),
    def("experiments.plan.warm_s", "s", "lower"),
    def("experiments.plan.fork_tail_s", "s", "lower"),
    def("experiments.plan.overhead_ms", "ms", "lower"),
    def("experiments.plan.fork_speedup", "ratio", "higher"),
    def("experiments.pool.dispatch_us", "us", "lower"),
    def("sampling.fixed_s", "s", "lower"),
    def("sampling.per_member_ms", "ms", "lower"),
    def("sampling.probe_ms_per_interval", "ms", "lower"),
    def("sampling.ci_cover_pct", "%", "higher"),
    def("tier_err_pct", "%", "lower"),
    def("tier_err_worst_pct", "%", "lower"),
    def("analytic.profile_extract_ms", "ms", "lower"),
    def("analytic.solve_us_per_mix", "us", "lower"),
    def("workloads.mix_gen_ms", "ms", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names and units.
    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let all: Vec<Def> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
        assert!(!valid_unit("per second, roughly"));
    }

    #[test]
    fn setup_time_is_declared_as_the_contract_requires() {
        assert!(END_TO_END.contains(&def("setup_s", "s", "lower")));
    }
}
