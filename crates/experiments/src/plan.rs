//! The sweep planner: trajectory-shared campaigns, resumable.
//!
//! A *campaign* is a flat list of [`PlannedRun`]s — full configurations,
//! workload mixes and cycle counts — evaluated by [`run_campaign`] with
//! results returned **in submission order**, so any sequential fold over
//! them is byte-identical for every `--jobs` value. Every Runner-driven
//! experiment goes through here — nothing else in the harness turns
//! `(SystemConfig, mix, cycles)` into a [`RunResult`], the sampled
//! tier's exact members included ([`crate::sampled`] simulates intervals
//! itself, never whole runs); a run that shares nothing with its
//! neighbours is a group of one, a plain cold run. On top of that
//! contract the planner layers two optimisations, both invisible in the
//! output:
//!
//! * **Shared trajectories.** Runs whose configurations agree on the
//!   prefix-relevant subset ([`asm_core::checkpoint::prefix_config`]) and
//!   share a workload mix differ only in their quantum-boundary policies,
//!   and those are read only inside the boundary. So such runs are one
//!   simulation until a boundary at which their policies *decide*
//!   differently ([`asm_core::mech::BoundaryDecision`]): equal
//!   pre-boundary state plus equal decision is equal post-boundary state
//!   (DESIGN.md §11). The planner simulates a tree of *segments*: a
//!   segment is one live `System` plus the members still riding it. It
//!   advances a quantum at a time; at each boundary the system evaluates
//!   every member's policies on its own boundary inputs, members that
//!   decided like the segment's leader stay, and each other group of
//!   like-deciding members continues from the pre-boundary snapshot as a
//!   segment of its own. A segment down to one member just runs to its
//!   horizon; members that reach the end together get clones of one
//!   result. Each round's segments fan out over the `--jobs` pool. A
//!   snapshot that fails to restore — stale artefact, damage — sends its
//!   members to cold runs with a stderr warning; results may never
//!   depend on it.
//! * **Resumable campaigns.** Under a [`Session`] with a checkpoint
//!   directory (`--checkpoint-dir`) each group's
//!   first-quantum snapshot (`warmups/`) and each finished run's result
//!   manifest (`runs/`) are persisted (atomically — kill-safe at any
//!   instant); snapshots of later boundaries live in memory only, one
//!   per boundary that members left at, until the segments they start
//!   have run. With `--resume` a later invocation replays finished runs
//!   from their manifests instead of simulating, byte-identically:
//!   manifests store every float as its bit pattern.
//!
//! Telemetry-instrumented runs share trajectories like any others
//! (counter and series state rides in the snapshot) but are never
//! manifest-replayed — a [`asm_core::RunTelemetry`] is an introspection
//! artefact, not a result, and serializing its tracer would dwarf the
//! runs it describes. The one traced run of a `--trace` invocation (the
//! tracer is deliberately outside snapshots) bypasses sharing entirely.

use std::collections::BTreeMap;
use std::sync::Arc;

use asm_core::checkpoint;
use asm_core::mech::BoundaryPolicies;
use asm_core::{config_hash, AloneCache, RunOptions, RunResult, Runner, SystemConfig};
use asm_cpu::AppProfile;
use asm_simcore::hash::DetHasher;
use asm_simcore::persist;
use asm_simcore::Cycle;

use crate::pool;
use crate::session::{Kind, Session};

/// Finished-run manifests: `<dir>/runs/<manifest key>.bin`.
pub(crate) const RUNS: Kind = Kind {
    dir: "runs",
    format: checkpoint::MANIFEST_FORMAT,
    version: checkpoint::MANIFEST_VERSION,
};

/// First-quantum warm-up snapshots, as [`checkpoint::capture`] seals
/// them: `<dir>/warmups/<warm-up key>.bin`.
pub(crate) const WARMUPS: Kind = Kind {
    dir: "warmups",
    format: checkpoint::SNAPSHOT_FORMAT,
    version: checkpoint::SNAPSHOT_VERSION,
};

/// One run of a sweep campaign.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// Full system configuration, boundary policies included.
    pub config: SystemConfig,
    /// Workload mix (slot order matters).
    pub apps: Vec<AppProfile>,
    /// Cycles to simulate.
    pub cycles: Cycle,
}

impl PlannedRun {
    /// Convenience constructor.
    #[must_use]
    pub fn new(config: SystemConfig, apps: Vec<AppProfile>, cycles: Cycle) -> Self {
        PlannedRun {
            config,
            apps,
            cycles,
        }
    }
}

/// Every configuration on every workload, configuration-major: the order
/// the figures print their variants in, hence the order of the sink's
/// `wNNN` labels. `chunks(workloads.len())` slices a campaign's results
/// back into one block per configuration.
#[must_use]
pub fn cross(
    configs: &[SystemConfig],
    workloads: &[Vec<AppProfile>],
    cycles: Cycle,
) -> Vec<PlannedRun> {
    configs
        .iter()
        .flat_map(|c| {
            workloads
                .iter()
                .map(move |w| PlannedRun::new(c.clone(), w.clone(), cycles))
        })
        .collect()
}

/// The key a finished run's manifest is stored under: the *full*
/// configuration hash (boundary policies included — unlike the warmup
/// key), the mix, and the cycle count. Everything a [`RunResult`] is a
/// pure function of.
fn manifest_key(run: &PlannedRun) -> u64 {
    use std::hash::Hasher as _;
    let mut h = DetHasher::default();
    h.write_u64(config_hash(&run.config));
    h.write_u64(checkpoint::mix_fingerprint(&run.apps));
    h.write_u64(run.cycles);
    h.finish()
}

/// What a campaign did, in counts: the harness event line printed after
/// every [`run_campaign`] and the hook for exact work-count tests.
/// Deterministic — a function of the runs and the checkpoint directory's
/// contents, never of `jobs` or the host. A *quantum-run* is one
/// quantum (or final partial quantum) of one shared `System` simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Runs in the campaign.
    pub members: usize,
    /// Members replayed from `--resume` manifests instead of simulated.
    pub replayed: usize,
    /// Warm-up groups among the simulated members: distinct (prefix
    /// configuration, mix, instrumentation) triples, plus one per run
    /// that cannot share at all (shorter than a quantum, or traced).
    pub groups: usize,
    /// Quantum-runs simulated.
    pub quantum_runs: u64,
    /// Quantum-runs that sharing only the first quantum of each group
    /// and forking every member for its whole tail would have simulated.
    pub per_member_quantum_runs: u64,
    /// Segments started from an in-memory snapshot because their members
    /// left another segment's trajectory.
    pub segments_forked: usize,
    /// Members simulated cold because a snapshot failed to restore.
    pub cold_fallbacks: usize,
}

impl std::fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign: groups={} members={} replayed={} quantum_runs={} \
             per_member_quantum_runs={} segments_forked={} cold_fallbacks={}",
            self.groups,
            self.members,
            self.replayed,
            self.quantum_runs,
            self.per_member_quantum_runs,
            self.segments_forked,
            self.cold_fallbacks
        )
    }
}

/// Evaluates every planned run and returns the results in submission
/// order, simulating each shared stretch of trajectory exactly once
/// (module docs). The output is byte-identical to
/// `runs.iter().map(cold run)` for every `jobs` value, with or without a
/// checkpoint directory, cold or resumed — pinned by tests and the
/// `ci.sh` resume leg.
///
/// Runs are instrumented as the session's artefact flags ask
/// ([`Session::run_options`]); their telemetry snapshots are recorded
/// into its sink here, sequentially and in submission order, so sink
/// artefacts stay jobs-independent. The campaign's [`CampaignStats`] go
/// to stderr as one line.
#[must_use]
pub fn run_campaign_in(session: &Session, runs: &[PlannedRun], jobs: usize) -> Vec<RunResult> {
    let (results, stats) = run_campaign_counted(session, runs, jobs, session.run_options());
    eprintln!("{stats}");
    session.record(&results);
    results
}

/// [`run_campaign_in`] the [`Session::global`] session.
#[must_use]
pub fn run_campaign(runs: &[PlannedRun], jobs: usize) -> Vec<RunResult> {
    run_campaign_in(Session::global(), runs, jobs)
}

/// [`run_campaign_in`] without its side channels — explicit run options,
/// nothing recorded into the sink, no event line — returning the
/// campaign's counts beside the results.
///
/// `opts.trace_sample` applies to the campaign's **first member only**:
/// a trace is one run's timeline (`--trace` writes the first recorded
/// run's), and a traced run can share nothing, so every other member
/// runs `opts` without it.
#[must_use]
pub fn run_campaign_counted(
    session: &Session,
    runs: &[PlannedRun],
    jobs: usize,
    opts: RunOptions,
) -> (Vec<RunResult>, CampaignStats) {
    run_with_cache(session, session.campaign_cache(), runs, jobs, opts)
}

/// [`run_campaign_counted`] over a cache the caller already holds (the
/// sampled tier's, so its exact members reuse its alone runs).
pub(crate) fn run_with_cache(
    session: &Session,
    cache: Arc<AloneCache>,
    runs: &[PlannedRun],
    jobs: usize,
    opts: RunOptions,
) -> (Vec<RunResult>, CampaignStats) {
    let campaign = Campaign {
        session,
        runs,
        opts,
        cache,
        // Manifests only make sense for uninstrumented runs (attribution
        // artefacts, like telemetry, are not stored in them).
        manifests: opts.trace_sample.is_none() && !opts.telemetry && !opts.attrib,
    };
    let mut stats = CampaignStats {
        members: runs.len(),
        ..CampaignStats::default()
    };
    let mut results: Vec<Option<RunResult>> =
        pool::run_ordered(jobs, runs, |_, run| campaign.replay(run));
    stats.replayed = results.iter().flatten().count();

    // Roots: the members still to simulate, grouped by warmup key. Runs
    // shorter than one quantum have no shareable prefix and the traced
    // run is ineligible (the tracer is deliberately outside snapshots):
    // each is a group of its own.
    let mut pending: Vec<Segment> = Vec::new();
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, run) in runs.iter().enumerate() {
        if results[i].is_some() {
            continue;
        }
        if campaign.opts_of(i).trace_sample.is_none() && run.cycles >= run.config.quantum {
            let key = campaign.runner(run).warmup_key(&run.apps, campaign.opts_of(i));
            groups.entry(key).or_default().push(i);
        } else {
            stats.per_member_quantum_runs += run.cycles.div_ceil(run.config.quantum);
            pending.push(Segment {
                members: vec![i],
                start: None,
            });
        }
    }
    for (key, members) in groups {
        stats.per_member_quantum_runs += 1 + members
            .iter()
            .map(|&m| runs[m].cycles.div_ceil(runs[m].config.quantum) - 1)
            .sum::<u64>();
        // The group's first-quantum snapshot from an earlier (possibly
        // killed) invocation, if an intact one is on disk.
        pending.push(Segment {
            start: session.load_sealed(&WARMUPS, key).map(Arc::new),
            members,
        });
    }
    stats.groups = pending.len();

    // Rounds: every pending segment runs (in parallel) as far as its
    // last member goes; the segments its leavers formed run next round.
    while !pending.is_empty() {
        let outcomes = pool::run_ordered(jobs, &pending, |_, seg| campaign.run_segment(seg));
        pending = Vec::new();
        for outcome in outcomes {
            stats.quantum_runs += outcome.quantum_runs;
            stats.cold_fallbacks += outcome.cold_fallbacks;
            stats.segments_forked += outcome.forks.len();
            for (i, result) in outcome.finished {
                results[i] = Some(result);
            }
            pending.extend(outcome.forks);
        }
    }
    eprintln!();
    let results = results
        .into_iter()
        .map(|r| r.expect("every member finishes in exactly one segment"))
        .collect();
    (results, stats)
}

/// A stretch of trajectory still to be simulated, and who rides it.
struct Segment {
    /// Indices into the campaign's runs, ascending. The first is the
    /// *leader*: the segment's system is built from its configuration,
    /// and members stay while they decide like it.
    members: Vec<usize>,
    /// The pre-boundary state to continue from, shared by every segment
    /// that left the same boundary; `None` starts at cycle 0.
    start: Option<Arc<Vec<u8>>>,
}

/// What running one segment produced.
#[derive(Default)]
struct Outcome {
    finished: Vec<(usize, RunResult)>,
    forks: Vec<Segment>,
    quantum_runs: u64,
    cold_fallbacks: usize,
}

/// Splits `members` into classes of equal `key(position)`; classes and
/// their members keep first-occurrence order, so the first class is the
/// one `members[0]` belongs to.
fn classes<K: PartialEq>(members: &[usize], key: impl Fn(usize) -> K) -> Vec<Vec<usize>> {
    let mut keys: Vec<K> = Vec::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (pos, &m) in members.iter().enumerate() {
        let k = key(pos);
        match keys.iter().position(|seen| *seen == k) {
            Some(class) => out[class].push(m),
            None => {
                keys.push(k);
                out.push(vec![m]);
            }
        }
    }
    out
}

/// The per-campaign context every segment runs against.
struct Campaign<'a> {
    session: &'a Session,
    runs: &'a [PlannedRun],
    opts: RunOptions,
    cache: Arc<AloneCache>,
    manifests: bool,
}

impl Campaign<'_> {
    fn runner(&self, run: &PlannedRun) -> Runner {
        Runner::with_cache(run.config.clone(), Arc::clone(&self.cache))
    }

    /// Member `i`'s instrumentation: the campaign's, request tracing for
    /// the first member alone ([`run_campaign_counted`]).
    fn opts_of(&self, i: usize) -> RunOptions {
        RunOptions {
            trace_sample: self.opts.trace_sample.filter(|_| i == 0),
            ..self.opts
        }
    }

    /// The finished result of `run` from its `--resume` manifest, if a
    /// valid one is on disk.
    fn replay(&self, run: &PlannedRun) -> Option<RunResult> {
        let replayed = self.manifests.then(|| self.session.replay(&RUNS, manifest_key(run)))?;
        replayed.inspect(|_: &RunResult| eprint!("."))
    }

    /// Member `i` is done: persist its manifest, tick the progress line.
    fn finished(&self, i: usize, result: RunResult, out: &mut Outcome) {
        if self.manifests {
            self.session.save(&RUNS, manifest_key(&self.runs[i]), &result);
        }
        eprint!(".");
        out.finished.push((i, result));
    }

    fn run_cold(&self, i: usize, out: &mut Outcome) {
        let run = &self.runs[i];
        let result = self.runner(run).run_with(&run.apps, run.cycles, self.opts_of(i));
        out.quantum_runs += run.cycles.div_ceil(run.config.quantum);
        self.finished(i, result, out);
    }

    /// Simulates `seg` until its last member finishes. Members that leave
    /// on the way — a different step to take, or a different decision at
    /// a boundary — come back as `forks`, grouped so that each fork's
    /// members agree on what made them leave.
    fn run_segment(&self, seg: &Segment) -> Outcome {
        let mut out = Outcome::default();
        let leader = &self.runs[seg.members[0]];
        let opts = self.opts_of(seg.members[0]);
        let (apps, q) = (&leader.apps[..], leader.config.quantum);
        let runner = self.runner(leader);

        let mut sys = match &seg.start {
            // Nothing to share a first quantum with: a plain cold run.
            None if seg.members.len() == 1 => {
                self.run_cold(seg.members[0], &mut out);
                return out;
            }
            None => {
                let mut sys = runner.start(apps, opts);
                sys.run_prefix(q);
                out.quantum_runs += 1;
                sys
            }
            Some(snapshot) => {
                let restored = runner.restore(apps, opts, snapshot).and_then(|sys| {
                    let shortest = seg.members.iter().map(|&m| self.runs[m].cycles).min();
                    if shortest.is_some_and(|c| c < sys.now()) {
                        return Err(persist::PersistError::Corrupt(format!(
                            "snapshot covers {} cycles, more than a member runs",
                            sys.now()
                        )));
                    }
                    Ok(sys)
                });
                match restored {
                    Ok(sys) => sys,
                    Err(e) => {
                        eprintln!("warning: checkpoint: fork failed ({e}); running cold");
                        out.cold_fallbacks = seg.members.len();
                        for &m in &seg.members {
                            self.run_cold(m, &mut out);
                        }
                        return out;
                    }
                }
            }
        };
        let key = runner.warmup_key(apps, opts);
        // The first state a from-zero root captures is the group's
        // first-quantum warm-up: the one snapshot worth persisting.
        let mut persist_capture = seg.start.is_none();
        let mut members = seg.members.clone();

        // Invariant: `sys` stands at a quantum boundary that has not fired
        // yet, in the state every member's own cold run is in there.
        loop {
            let now = sys.now();
            if let [only] = members[..] {
                let rest = self.runs[only].cycles - now;
                sys.run_for(rest);
                out.quantum_runs += rest.div_ceil(q);
                self.finished(only, runner.finish(apps, opts, sys), &mut out);
                return out;
            }

            // Anyone may leave at this boundary, and leavers continue
            // from the state before it.
            let snapshot = Arc::new(checkpoint::capture(&sys, key, now));
            if std::mem::take(&mut persist_capture) {
                self.session.save_sealed(&WARMUPS, key, &snapshot);
            }
            let mut fork = |classes: Vec<Vec<usize>>| {
                out.forks.extend(classes.into_iter().map(|members| Segment {
                    members,
                    start: Some(Arc::clone(&snapshot)),
                }));
            };

            // The next step is one quantum, or what is left of a member's
            // horizon if that is less; members with another step to take
            // than the leader's leave first.
            let step_of = |m: usize| (self.runs[m].cycles - now).min(q);
            let mut by_step = classes(&members, |pos| step_of(members[pos]));
            let stay = by_step.remove(0);
            fork(by_step);
            let step = step_of(stay[0]);
            let last = step < q;

            sys.set_sibling_policies(
                stay.iter()
                    .map(|&m| BoundaryPolicies::of(&self.runs[m].config))
                    .collect(),
            );
            if last {
                sys.run_for(step);
            } else {
                sys.run_prefix(step);
            }
            out.quantum_runs += step.div_ceil(q);

            // The pending boundary fired first thing in that step, under
            // the leader's policies; whoever decided otherwise left there.
            let decisions = sys.sibling_decisions();
            assert_eq!(decisions.len(), stay.len(), "the pending boundary fired");
            let mut by_decision = classes(&stay, |pos| &decisions[pos]);
            members = by_decision.remove(0);
            fork(by_decision);

            if last {
                let result = runner.finish(apps, opts, sys);
                for &m in &members {
                    self.finished(m, result.clone(), &mut out);
                }
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::checkpoint_dir;
    use asm_core::{CachePolicy, MemPolicy, QosConfig, ThrottlePolicy};
    use asm_simcore::AppId;
    use asm_workloads::suite;

    fn base_config() -> SystemConfig {
        let mut c = SystemConfig::default();
        c.quantum = 50_000;
        c.epoch = 1_000;
        c.estimators = asm_core::EstimatorSet::asm_only();
        c
    }

    fn mixes() -> Vec<Vec<AppProfile>> {
        vec![
            vec![
                suite::by_name("mcf_like").unwrap(),
                suite::by_name("h264ref_like").unwrap(),
            ],
            vec![
                suite::by_name("lbm_like").unwrap(),
                suite::by_name("povray_like").unwrap(),
            ],
        ]
    }

    fn policy_sweep(cycles: Cycle) -> Vec<PlannedRun> {
        let policies = [CachePolicy::None, CachePolicy::Ucp, CachePolicy::AsmCache];
        let mut runs = Vec::new();
        for policy in policies {
            for apps in mixes() {
                let mut c = base_config();
                c.cache_policy = policy;
                runs.push(PlannedRun::new(c, apps, cycles));
            }
        }
        runs
    }

    /// One run on the first mix under `edit`ed boundary policies.
    fn member(cycles: Cycle, edit: impl FnOnce(&mut SystemConfig)) -> PlannedRun {
        let mut c = base_config();
        edit(&mut c);
        PlannedRun::new(c, mixes().remove(0), cycles)
    }

    fn qos(bound: f64) -> CachePolicy {
        CachePolicy::AsmQos(QosConfig {
            target: AppId::new(0),
            bound,
        })
    }

    fn assert_bitwise_equal(a: &[RunResult], b: &[RunResult]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.app_names, y.app_names);
            assert_eq!(
                bits(&x.whole_run_slowdowns),
                bits(&y.whole_run_slowdowns),
                "whole-run slowdowns differ"
            );
            assert_eq!(x.quanta.len(), y.quanta.len());
            for (qx, qy) in x.quanta.iter().zip(&y.quanta) {
                assert_eq!(bits(&qx.actual), bits(&qy.actual), "ground truth differs");
                assert_eq!(bits(&qx.car_shared), bits(&qy.car_shared));
                assert_eq!(qx.partition, qy.partition, "recorded partition differs");
                assert_eq!(qx.estimates.len(), qy.estimates.len());
                for ((nx, ex), (ny, ey)) in qx.estimates.iter().zip(&qy.estimates) {
                    assert_eq!(nx, ny);
                    assert_eq!(bits(ex), bits(ey), "estimates differ for {nx}");
                }
            }
        }
    }

    /// Cold per-run results, computed the way the sweeps used to: one
    /// shared cache, `Runner::run_with` each.
    fn cold(runs: &[PlannedRun]) -> Vec<RunResult> {
        let cache = Arc::new(asm_core::AloneCache::new());
        runs.iter()
            .map(|r| {
                Runner::with_cache(r.config.clone(), Arc::clone(&cache)).run_with(
                    &r.apps,
                    r.cycles,
                    RunOptions::default(),
                )
            })
            .collect()
    }

    /// The campaign's counts under `session`, after checking it against
    /// cold runs.
    fn checked_in(session: &Session, runs: &[PlannedRun], jobs: usize) -> CampaignStats {
        let (got, stats) = run_campaign_counted(session, runs, jobs, RunOptions::default());
        assert_bitwise_equal(&got, &cold(runs));
        stats
    }

    fn checked(runs: &[PlannedRun], jobs: usize) -> CampaignStats {
        checked_in(&Session::default(), runs, jobs)
    }

    fn artefacts(dir: &std::path::Path, kind: &Kind) -> Vec<std::path::PathBuf> {
        let mut paths: Vec<_> = std::fs::read_dir(dir.join(kind.dir))
            .map(|entries| entries.map(|e| e.unwrap().path()).collect())
            .unwrap_or_default();
        paths.sort();
        paths
    }

    #[test]
    fn campaign_matches_cold_runs_bitwise_for_any_jobs() {
        // 125k cycles of 50k quanta: two shared boundaries, then a final
        // partial quantum that no boundary closes.
        let runs = policy_sweep(125_000);
        let reference = cold(&runs);
        for jobs in [1, 4] {
            let got = run_campaign(&runs, jobs);
            assert_bitwise_equal(&got, &reference);
        }
    }

    #[test]
    fn short_runs_skip_warmup_sharing_but_still_match() {
        // One quantum of 50k cycles never completes in 30k: no prefix to
        // share, every run goes cold through the same code path.
        let runs = policy_sweep(30_000);
        let stats = checked(&runs, 2);
        assert_eq!(stats.groups, runs.len());
        assert_eq!(stats.quantum_runs, runs.len() as u64);
        assert_eq!(stats.segments_forked, 0);
    }

    #[test]
    fn identical_configs_are_one_simulation_with_two_results() {
        let runs = vec![
            member(150_000, |c| c.cache_policy = CachePolicy::AsmCache),
            member(150_000, |c| c.cache_policy = CachePolicy::AsmCache),
        ];
        let stats = checked(&runs, 1);
        assert_eq!((stats.groups, stats.segments_forked), (1, 0));
        assert_eq!(stats.quantum_runs, 3);
        assert_eq!(stats.per_member_quantum_runs, 5);
    }

    #[test]
    fn horizon_of_one_quantum_records_each_members_own_partition() {
        // Only the final boundary ever fires, and it is the one place the
        // members differ: sharing the result of the leader's boundary
        // would hand `None` members a partition (or the reverse).
        let runs = vec![
            member(50_000, |c| c.cache_policy = CachePolicy::None),
            member(50_000, |c| c.cache_policy = CachePolicy::Ucp),
            member(50_000, |c| c.cache_policy = CachePolicy::None),
        ];
        let (got, stats) = run_campaign_counted(&Session::default(), &runs, 1, RunOptions::default());
        assert_bitwise_equal(&got, &cold(&runs));
        assert!(got[0].quanta[0].partition.is_none());
        assert!(got[1].quanta[0].partition.is_some());
        assert!(got[2].quanta[0].partition.is_none());
        // The one quantum is simulated once; the boundary fires once per
        // distinct decision, on no further cycles.
        assert_eq!(stats.quantum_runs, 1);
        assert_eq!(stats.segments_forked, 1);
    }

    #[test]
    fn members_of_one_group_may_have_different_horizons() {
        // 50k-cycle quanta. The 100k member ends exactly on the second
        // boundary, the 120k one 20k cycles into the third quantum, the
        // 150k ones on the third boundary: all four agree at every
        // boundary they share, and each must still get its own ending.
        let runs = vec![
            member(150_000, |c| c.cache_policy = CachePolicy::AsmCache),
            member(100_000, |c| c.cache_policy = CachePolicy::AsmCache),
            member(120_000, |c| c.cache_policy = CachePolicy::AsmCache),
            member(150_000, |c| c.cache_policy = CachePolicy::AsmCache),
        ];
        for jobs in [1, 3] {
            let stats = checked(&runs, jobs);
            assert_eq!(stats.groups, 1);
            // Three shared full quanta, plus the 120k member's partial one.
            assert_eq!(stats.quantum_runs, 4);
            assert_eq!(stats.per_member_quantum_runs, 1 + 2 + 1 + 2 + 2);
        }
    }

    #[test]
    fn throttle_members_leave_unless_their_policy_is_the_same() {
        let fst = |t: f64| {
            move |c: &mut SystemConfig| {
                c.throttle_policy = ThrottlePolicy::Fst {
                    unfairness_threshold: t,
                };
            }
        };
        let runs = vec![
            member(200_000, |_| {}),
            member(200_000, fst(1.4)),
            member(200_000, fst(1.1)),
            member(200_000, fst(1.4)),
        ];
        let stats = checked(&runs, 2);
        // The policy is compared verbatim: the two 1.4 members share all
        // four quanta, every other pair only the first.
        assert_eq!(stats.quantum_runs, 1 + 3 * 3);
        assert_eq!(stats.segments_forked, 2);
    }

    #[test]
    fn neighbouring_bounds_share_quanta_until_they_decide_differently() {
        // A fine ASM-QoS scan plus the memory-policy axis: far fewer
        // distinct decisions than members.
        let mut runs = Vec::new();
        for k in 0..6 {
            for mem in [MemPolicy::Uniform, MemPolicy::SlowdownWeighted] {
                runs.push(member(200_000, |c| {
                    c.cache_policy = qos(2.0 + 0.05 * f64::from(k));
                    c.mem_policy = mem;
                }));
            }
        }
        let stats = checked(&runs, 3);
        assert_eq!(stats.per_member_quantum_runs, 1 + 12 * 3);
        assert!(
            stats.quantum_runs < stats.per_member_quantum_runs,
            "no quantum was shared past the first: {stats}"
        );
        assert_eq!(checked(&runs, 1), stats, "counts depend on jobs");
    }

    #[test]
    fn interrupted_campaign_resumes_bitwise_replaying_what_finished() {
        let runs = policy_sweep(125_000);
        let (dir, open) = checkpoint_dir("plan_resume");
        // The campaign dies after k members: only their manifests exist.
        let k = 4;
        let first = checked_in(&open(false), &runs[..k], 2);
        assert_eq!(first.replayed, 0);
        assert_eq!(artefacts(&dir, &RUNS).len(), k);
        // Without --resume the manifests are written, never read.
        assert_eq!(checked_in(&open(false), &runs[..k], 1).replayed, 0);
        let resumed = checked_in(&open(true), &runs, 1);
        assert_eq!((resumed.replayed, resumed.members), (k, runs.len()));
        assert!(resumed.quantum_runs > 0, "the other members ran");
        // That pass finished the campaign: the next one only replays.
        let replayed = checked_in(&open(true), &runs, 3);
        assert_eq!((replayed.replayed, replayed.quantum_runs), (runs.len(), 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_and_rekeyed_manifests_are_ignored_and_resimulated() {
        let runs = policy_sweep(125_000);
        let (dir, open) = checkpoint_dir("plan_damage");
        let _ = checked_in(&open(false), &runs, 2);
        let manifests = artefacts(&dir, &RUNS);
        assert_eq!(manifests.len(), runs.len());
        // One manifest loses its tail; another is overwritten with an
        // intact manifest of a different run (right format, wrong key).
        let bytes = std::fs::read(&manifests[0]).unwrap();
        std::fs::write(&manifests[0], &bytes[..bytes.len() / 2]).unwrap();
        std::fs::copy(&manifests[2], &manifests[1]).unwrap();
        let healed = checked_in(&open(true), &runs, 2);
        assert_eq!(healed.replayed, runs.len() - 2);
        assert!(healed.quantum_runs > 0, "the two ignored members ran");
        // Both were rewritten: now everything replays.
        assert_eq!(checked_in(&open(true), &runs, 1).replayed, runs.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_warmup_that_fails_to_restore_is_a_counted_cold_fallback() {
        let runs = policy_sweep(125_000);
        let (dir, open) = checkpoint_dir("plan_stale_warmup");
        let clean = checked_in(&open(false), &runs, 2);
        assert_eq!(clean.cold_fallbacks, 0);
        let warmups = artefacts(&dir, &WARMUPS);
        assert_eq!(warmups.len(), mixes().len(), "one warm-up per group");
        // An envelope sealed under the group's own key — so the store
        // hands it out — holding something that is not a `System`.
        let forged = &warmups[0];
        let key = u64::from_str_radix(forged.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
        std::fs::write(forged, persist::seal(WARMUPS.format, WARMUPS.version, key, &7u64)).unwrap();
        // And one that is not an envelope at all: ignored at load, so its
        // group warms up again instead of falling back.
        std::fs::write(&warmups[1], b"asm").unwrap();
        let stats = checked_in(&open(false), &runs, 2);
        assert_eq!(stats.cold_fallbacks, runs.len() / mixes().len());
        assert_eq!(stats.groups, clean.groups);
        // The fallback group re-captures nothing (cold runs never do), the
        // re-warmed group rewrote its file: one forged warm-up remains.
        assert_eq!(checked_in(&open(false), &runs, 1).cold_fallbacks, stats.cold_fallbacks);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_the_first_member_of_a_traced_campaign_traces_and_runs_alone() {
        let runs = vec![
            member(150_000, |c| c.cache_policy = CachePolicy::AsmCache),
            member(150_000, |c| c.cache_policy = CachePolicy::AsmCache),
            member(150_000, |c| c.cache_policy = CachePolicy::AsmCache),
        ];
        let traced = RunOptions {
            telemetry: true,
            trace_sample: Some(crate::sink::TRACE_SAMPLE),
            attrib: false,
        };
        let (got, stats) = run_campaign_counted(&Session::default(), &runs, 2, traced);
        assert_bitwise_equal(&got, &cold(&runs));
        // Member 0 alone and cold (3 quanta); members 1 and 2 one trajectory.
        assert_eq!((stats.groups, stats.quantum_runs), (2, 6));
        let events = |r: &RunResult| r.telemetry.as_ref().expect("telemetry on").tracer.events().len();
        assert!(events(&got[0]) > 0, "the first member traced nothing");
        assert_eq!((events(&got[1]), events(&got[2])), (0, 0));
    }

    #[test]
    fn manifest_key_separates_cycles_configs_and_mixes() {
        let runs = policy_sweep(125_000);
        let mut keys: Vec<u64> = runs.iter().map(manifest_key).collect();
        let mut longer = policy_sweep(150_000);
        keys.extend(longer.iter().map(manifest_key));
        longer[0].apps.reverse();
        keys.push(manifest_key(&longer[0]));
        // Same names, another working set: another simulation.
        longer[0].apps[0] = AppProfile::builder(longer[0].apps[0].name())
            .working_set_lines(1 << 10)
            .build();
        keys.push(manifest_key(&longer[0]));
        let unique: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "manifest key collision");
    }
}
