//! The epoch and quantum boundaries of §4: owner selection, estimates,
//! mechanisms, the quantum record, and the per-quantum reset.

use asm_cpu::Core;
use asm_simcore::{AppId, Cycle};

use super::{AppQuantumStats, QuantumRecord, System};
use crate::config::{EpochAssignment, ThrottlePolicy};
use crate::estimator::{QuantumCtx, NAMES};
use crate::mech::{self, BoundaryDecision, BoundaryInputs, BoundaryPolicies};

impl System {
    /// Picks the epoch owner (§4.2: probabilistic assignment; §7.2:
    /// slowdown-proportional under ASM-Mem) and applies memory priority.
    // asm-lint: allow(R9): epoch boundary — runs once per epoch_cycles
    // (default 100k), not per cycle; trace args may allocate
    pub(super) fn begin_epoch(&mut self, now: Cycle) {
        let owner = if let Some(active) = self.active_only {
            // Alone runs: the single application always has priority (it is
            // alone anyway; this keeps queueing accounting consistent).
            Some(active)
        } else {
            match self.config.epoch_assignment {
                EpochAssignment::Probabilistic => {
                    self.rng.pick_weighted(&self.epoch_weights).map(AppId::new)
                }
                EpochAssignment::RoundRobin => Some(AppId::new(
                    (self.epoch_counter as usize) % self.app_count(),
                )),
            }
        };
        self.epoch_counter += 1;
        let hier = &mut self.hier;
        hier.epoch_owner = owner;
        hier.mem.set_priority_app(now, owner);
        hier.estimators.on_epoch_start(owner);
        hier.probes.epoch_started(now, owner);
    }

    /// Finalises the quantum ending at `now`: estimates, mechanisms,
    /// record, reset.
    // asm-lint: allow(R9): quantum boundary — runs once per quantum
    // (default 5M cycles); estimator/mechanism bookkeeping may allocate
    pub(super) fn end_quantum(&mut self, now: Cycle) {
        // The boundary reads retired counts, may move MLP caps and closes
        // the ledger quantum: every core must have lived through `now - 1`.
        self.sync_cores(now);
        self.next_quantum_at = now + self.config.quantum;
        let n = self.app_count();
        let q = self.config.quantum;
        let hier = &mut self.hier;

        let queueing: Vec<Cycle> = (0..n)
            .map(|i| hier.mem.queueing_cycles(AppId::new(i)))
            .collect();
        let ctx = QuantumCtx {
            quantum: q,
            epoch: self.config.epoch,
            queueing_cycles: &queueing,
        };
        let [asm, fst, ptca, mise, stfm] = hier.estimators.on_quantum_end(&ctx);
        let asm_est = hier.estimators.asm();
        let car_alone = asm_est.map(|e| e.car_alone().to_vec());
        let ats_samples = asm_est.map_or_else(Vec::new, |e| e.ats_sample_counts().to_vec());

        // The boundary policies: this system's own and, on the same
        // inputs, those of any siblings a campaign planner registered.
        let inputs = BoundaryInputs {
            ats: &hier.ats,
            qstats: &hier.qstats,
            asm_estimates: asm.as_deref(),
            car_alone: car_alone.as_deref(),
            quantum: q,
            llc_latency: self.config.llc_latency,
            ways: hier.llc.geometry().ways(),
        };
        let BoundaryDecision {
            partition,
            epoch_weights,
            throttle,
        } = mech::decide(BoundaryPolicies::of(&self.config), &inputs);
        self.sibling_decisions = self
            .sibling_policies
            .iter()
            .map(|&p| mech::decide(p, &inputs))
            .collect();

        // Cache mechanism.
        if let Some(p) = &partition {
            hier.llc.set_partition(Some(p.clone()));
        }

        // Memory (epoch-weight) mechanism.
        self.epoch_weights = epoch_weights;

        // Source throttling (FST's actuator): prefers FST's own estimates,
        // falling back to ASM's when FST is not instantiated.
        if let ThrottlePolicy::Fst {
            unfairness_threshold,
        } = throttle
        {
            let slowdowns = fst
                .as_ref()
                .or(asm.as_ref())
                .map_or_else(|| vec![1.0; n], Clone::clone);
            self.throttle.update(&slowdowns, unfairness_threshold);
            for (i, core) in self.lazy.cores.iter_mut().enumerate() {
                let cap = self.throttle.mlp_cap(i, core.base_mlp());
                core.set_mlp_throttle(Some(cap));
            }
        }

        // Record, and report the closed quantum to the instruments.
        let record = QuantumRecord {
            start_cycle: now - q,
            end_cycle: now,
            retired_start: self
                .records
                .last()
                .map_or_else(|| vec![0; n], |prev| prev.retired_end.clone()),
            retired_end: self.lazy.cores.iter().map(Core::retired).collect(),
            car_shared: hier
                .qstats
                .iter()
                .map(|s| s.accesses as f64 / q as f64)
                .collect(),
            partition: partition.as_ref().map(|p| p.as_slice().to_vec()),
            car_alone,
            ats_samples,
            interference_cycles: std::mem::replace(&mut hier.quantum_interference, vec![0; n]),
            // A name is built only for a present estimator.
            estimates: NAMES
                .into_iter()
                .zip([asm, fst, ptca, mise, stfm])
                .filter_map(|(name, e)| e.map(|e| (name.to_owned(), e)))
                .collect(),
        };
        hier.probes.quantum_closed(&record, self.records.len(), &hier.mem);
        self.records.push(record);

        // Reset per-quantum state (folding it into lifetime totals first).
        for (life, s) in self.lifetime.iter_mut().zip(&hier.qstats) {
            life.0 += s.accesses;
            life.1 += s.hits;
            life.2 += s.misses;
        }
        for s in &mut hier.qstats {
            // The union-time horizons outlive the quantum; the rest is zeroed.
            s.hit_time.reset();
            s.miss_time.reset();
            *s = AppQuantumStats {
                hit_time: s.hit_time,
                miss_time: s.miss_time,
                ..AppQuantumStats::default()
            };
        }
        for a in &mut hier.ats {
            a.reset_counters();
        }
        for p in &mut hier.pollution {
            p.clear();
        }
        hier.mem.reset_queueing_cycles();
        // Throttling may have changed MLP caps (and the partition the
        // stall answers): cached wake-ups are stale, re-examine everyone.
        self.lazy.wake.fill(0);
    }
}
