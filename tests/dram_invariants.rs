//! Property tests: the DDR3 memory system's end-to-end invariants under
//! random request streams.

use asm_repro::dram::{DramConfig, MemRequest, MemorySystem, SchedulerKind};
use asm_repro::simcore::{AppId, LineAddr};
use proptest::prelude::*;

fn drain(mem: &mut MemorySystem, start: u64, horizon: u64) -> Vec<asm_repro::dram::Completion> {
    let mut out = Vec::new();
    for now in start..horizon {
        mem.tick(now, &mut out);
    }
    out
}

fn scheduler_strategy() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::FrFcfs),
        Just(SchedulerKind::Parbs),
        Just(SchedulerKind::Tcm),
        Just(SchedulerKind::Atlas),
        Just(SchedulerKind::Bliss),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_read_completes_exactly_once(
        lines in prop::collection::vec(0u64..10_000, 1..40),
        scheduler in scheduler_strategy(),
    ) {
        let mut mem = MemorySystem::new(DramConfig::default(), scheduler, 4);
        let mut expected = Vec::new();
        for (i, &l) in lines.iter().enumerate() {
            let id = i as u64;
            let app = AppId::new(i % 4);
            if mem.enqueue(MemRequest::read(id, LineAddr::new(l), app, 0)).is_ok() {
                expected.push(id);
            }
        }
        let done = drain(&mut mem, 0, 200_000);
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(ids, expected);
    }

    #[test]
    fn completions_respect_causality_and_bus_serialisation(
        lines in prop::collection::vec(0u64..100_000, 2..30),
    ) {
        let config = DramConfig::default(); // single channel
        let burst = config.timing.burst;
        let mut mem = MemorySystem::new(config, SchedulerKind::FrFcfs, 2);
        for (i, &l) in lines.iter().enumerate() {
            let _ = mem.enqueue(MemRequest::read(i as u64, LineAddr::new(l), AppId::new(0), 0));
        }
        let done = drain(&mut mem, 0, 500_000);
        let mut finishes: Vec<u64> = done.iter().map(|c| c.finish).collect();
        for c in &done {
            prop_assert!(c.service_start >= c.arrival);
            prop_assert!(c.finish > c.service_start);
            prop_assert!(c.interference_cycles <= c.finish - c.arrival);
        }
        // One data bus: any two bursts are at least `burst` apart.
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            prop_assert!(w[1] - w[0] >= burst, "bursts overlap: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn row_hits_are_never_slower_than_conflicts_on_idle_system(
        row_gap in 1u64..64,
    ) {
        // Access line 0, then either a row hit (same row) or another row of
        // the same bank; the row hit must finish sooner.
        let run = |second: u64| {
            let mut mem = MemorySystem::new(DramConfig::default(), SchedulerKind::FrFcfs, 1);
            mem.enqueue(MemRequest::read(0, LineAddr::new(0), AppId::new(0), 0)).unwrap();
            // Tick until the first request completes, without running past it.
            let mut out = Vec::new();
            let mut now = 0;
            while out.is_empty() {
                mem.tick(now, &mut out);
                now += 1;
            }
            let t0 = now;
            mem.enqueue(MemRequest::read(1, LineAddr::new(second), AppId::new(0), t0)).unwrap();
            let done = drain(&mut mem, t0, t0 + 10_000);
            done[0].finish - t0
        };
        let hit_latency = run(1); // same row
        // Same bank, different row: channel/bank bits keep row 0 col X in
        // bank 0; row r of bank 0 is at line r * 128 * 8 (8 banks).
        let conflict_latency = run(row_gap * 128 * 8);
        prop_assert!(hit_latency < conflict_latency);
    }

    #[test]
    fn deterministic_under_fixed_seed(
        lines in prop::collection::vec(0u64..50_000, 1..30),
        scheduler in scheduler_strategy(),
    ) {
        let run = || {
            let mut mem = MemorySystem::with_seed(DramConfig::default(), scheduler, 4, 7);
            for (i, &l) in lines.iter().enumerate() {
                let _ = mem.enqueue(MemRequest::read(i as u64, LineAddr::new(l), AppId::new(i % 4), 0));
            }
            drain(&mut mem, 0, 300_000)
                .iter()
                .map(|c| (c.id, c.finish))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn saturated_system_still_drains() {
    // Fill the read queue completely, then keep ticking: everything must
    // complete despite queue-full backpressure at enqueue time.
    let config = DramConfig::default();
    let cap = config.read_queue_capacity;
    let mut mem = MemorySystem::new(config, SchedulerKind::FrFcfs, 4);
    let mut accepted = 0u64;
    for i in 0..(cap as u64 * 2) {
        let line = LineAddr::new(i * 4096); // spread across rows
        if mem
            .enqueue(MemRequest::read(i, line, AppId::new((i % 4) as usize), 0))
            .is_ok()
        {
            accepted += 1;
        }
    }
    assert_eq!(accepted, cap as u64);
    let done = drain(&mut mem, 0, 2_000_000);
    assert_eq!(done.len(), cap);
}

#[test]
fn all_schedulers_drain_a_heavy_mixed_load() {
    for kind in [
        SchedulerKind::FrFcfs,
        SchedulerKind::Parbs,
        SchedulerKind::Tcm,
        SchedulerKind::Atlas,
        SchedulerKind::Bliss,
    ] {
        let mut mem = MemorySystem::new(DramConfig::default(), kind, 4);
        let mut out = Vec::new();
        let mut sent = 0u64;
        let mut rng = asm_repro::simcore::SimRng::seed_from(kind as u64 + 1);
        for now in 0..1_000_000u64 {
            if sent < 3_000 && now % 16 == 0 {
                let line = LineAddr::new(rng.gen_range(1 << 20));
                if mem
                    .enqueue(MemRequest::read(
                        sent,
                        line,
                        AppId::new((sent % 4) as usize),
                        now,
                    ))
                    .is_ok()
                {
                    sent += 1;
                }
            }
            mem.tick(now, &mut out);
            if out.len() as u64 == sent && sent == 3_000 {
                break;
            }
        }
        assert_eq!(out.len() as u64, sent, "{kind} failed to drain");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The controller's actual schedules must pass the post-hoc timing
    /// audit (bank exclusivity, bus serialisation, tRRD, tFAW) for every
    /// scheduler and random load.
    #[test]
    fn controller_schedules_are_timing_legal(
        lines in prop::collection::vec(0u64..200_000, 5..60),
        scheduler in scheduler_strategy(),
        channels in 1usize..3,
    ) {
        let mut config = DramConfig::default();
        config.channels = channels;
        let timing = config.timing;
        let mut mem = MemorySystem::new(config, scheduler, 4);
        mem.enable_audit();
        for (i, &l) in lines.iter().enumerate() {
            let req = if i % 5 == 0 {
                MemRequest::write(i as u64, LineAddr::new(l), AppId::new(i % 4), 0)
            } else {
                MemRequest::read(i as u64, LineAddr::new(l), AppId::new(i % 4), 0)
            };
            let _ = mem.enqueue(req);
        }
        let _ = drain(&mut mem, 0, 300_000);
        let audit = mem.audit().expect("auditing enabled");
        prop_assert!(!audit.is_empty(), "nothing was recorded");
        let violations = audit.validate(&timing);
        prop_assert!(
            violations.is_empty(),
            "timing violations: {:?}",
            &violations[..violations.len().min(3)]
        );
    }
}
