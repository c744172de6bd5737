//! The analytic mix solver: shared-cache occupancy fixed point, DRAM
//! queueing approximation, and the ASM closed form.
//!
//! Given one [`ReuseProfile`] per application, [`MixSolver::alone`] and
//! [`MixSolver::solve`] run a damped fixed point over per-application
//! CPIs, first for each application alone (once per profile) and then for
//! the mix, seeded from the alone fits:
//!
//! - **Cache stage.** Per-cycle LLC access rates `a_i = api_i / cpi_i`
//!   convert each application's reuse gaps into shared-cache occupancy: an
//!   access by app `i` at gap `g` hits iff
//!   `Σ_j u_j(g · a_j / a_i) < C` (Che's approximation over concurrent
//!   streams). The *critical gap* — the largest hitting gap — is found by
//!   geometric bisection with a fixed step count, and the tail of the gap
//!   distribution at the critical gap is the miss rate. The alone miss
//!   rate is the same computation with only the own footprint term.
//! - **Memory stage.** Miss traffic (plus writeback traffic) loads a
//!   queueing model of the DRAM system built from
//!   [`asm_dram::TimingSpec`]: per-request service interpolates the
//!   row-hit/row-conflict latencies by a row-locality estimate (sequential
//!   fraction, degraded by other applications' interleaved traffic). The
//!   simulated controller is latency-bound long before it is
//!   bandwidth-bound, so read latency is dominated by queueing terms: the
//!   app's *own* outstanding requests serialising at the channel
//!   (self-queueing, scaled by its in-flight backlog), write-drain
//!   episodes that close open rows (worst for row-hit streams), and other
//!   applications' backlogs with an FR-FCFS row-hit-first bias that
//!   starves low-row-locality apps. An M/M/1-style term adds shared-load
//!   delay as utilisation grows, and past saturation CPIs are scaled up
//!   so total demand fits the bottleneck (demand-proportional rationing,
//!   the FR-FCFS steady state).
//! - **Core stage.** CPI = issue-width base + exposed LLC-hit stalls +
//!   read-miss stalls `rmpi · latency / parallelism`, with parallelism
//!   capped by both the reorder window and the model MLP. Write misses
//!   contribute bandwidth but no stall (the cycle tier completes store
//!   misses into a store buffer in one cycle).
//!
//! Slowdown is then the ASM closed form `CAR_alone / CAR_shared`
//! (Subramanian et al., MICRO 2015 §4). Since LLC accesses per instruction
//! are tier-invariant, this equals `cpi_shared / cpi_alone`.
//!
//! Every loop and reduction iterates in a canonical profile-key order and
//! runs a fixed number of iterations, so results are bitwise deterministic
//! and bitwise invariant under mix permutation.

use asm_core::SystemConfig;
use asm_dram::TimingSpec;

use crate::profile::ReuseProfile;

/// Hard cap on mix size: the solver's scratch lives on the stack.
pub const MAX_APPS: usize = 32;

/// Upper bound of the critical-gap search (own-access counts).
const GAP_MAX: f64 = 1e15;

/// Bisection steps of the critical-gap search. Fixed count — the search
/// never tests floats for equality and always does the same work. 24
/// geometric halvings of the [1, 1e15] span pin the gap to within a
/// factor of `exp(ln(1e15) / 2^24)` ≈ 1 + 2e-6, far inside model error.
const GAP_SEARCH_ITERS: u32 = 24;

/// Calibration constants of the analytic model.
///
/// These are *global* knobs calibrated once against the cycle-accurate
/// tier (see the `accuracy` experiment); they are deliberately not fit per
/// workload. Defaults are the calibrated values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// Fixed-point iterations (alone and shared passes alike).
    pub iters: u32,
    /// Damping factor on each CPI update (0 < damping ≤ 1).
    pub damping: f64,
    /// Scale on the window-limited miss parallelism term.
    pub k_par: f64,
    /// Fraction of LLC-hit latency exposed despite the reorder window.
    pub k_hit: f64,
    /// Fixed extra cycles per DRAM read (LLC lookup + controller hops).
    pub miss_extra: f64,
    /// Row-hit probability per sequential LLC-miss transition, alone.
    pub k_row: f64,
    /// Row locality retained under full interleaving (FR-FCFS serves
    /// co-queued row hits first, so sharing does not destroy all of it).
    pub k_row_mix: f64,
    /// Weight of the M/M/1 queueing-delay term.
    pub k_queue: f64,
    /// Utilisation ceiling for the queueing/rationing stages.
    pub max_util: f64,
    /// Weight of the self-queueing term: a deep-MLP application's own
    /// outstanding requests serialise behind each other at the channel.
    pub k_self: f64,
    /// Base weight of the write-drain disruption term (writeback bursts
    /// block reads and close rows).
    pub k_wr: f64,
    /// Row-locality-squared weight of the write-drain term: streaming
    /// (open-row) readers lose the most when a drain closes their row.
    pub k_wr_rh: f64,
    /// Weight of the cross-application queueing term (other applications'
    /// outstanding requests ahead of ours in the controller).
    pub k_cross: f64,
    /// FR-FCFS bias: extra cross-queueing felt by a low-row-locality
    /// application behind a high-row-locality one (row hits are served
    /// first, starving row-conflict requests — the paper's §2 motivation).
    pub k_frfcfs: f64,
    /// Effective LLC capacity fraction: set-conflict and replacement
    /// imperfection make the cache behave smaller than its line count.
    pub k_cap: f64,
    /// Fraction of the Che-predicted *contention delta* (shared miss rate
    /// minus own-footprint miss rate) that materialises. Che's
    /// approximation is good at ranking contention but overstates its
    /// magnitude against the simulated LRU: applying it as a scaled delta
    /// on top of the alone miss rate cancels the shared absolute error.
    pub k_share: f64,
    /// Fraction of the profile MLP an application actually sustains
    /// (misses are bursty, so the window limit rarely binds instead).
    pub k_mlp: f64,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            iters: 32,
            damping: 0.5,
            k_par: 3.713975676274424,
            k_hit: 0.024293300601461117,
            miss_extra: 17.2929187125,
            k_row: 0.756,
            k_row_mix: 1.0,
            k_queue: 0.5691229751478168,
            max_util: 0.96,
            k_self: 0.1544728881029311,
            k_wr: 0.07062887292837187,
            k_wr_rh: 1.6552359436384745,
            k_cross: 1.3116507613493977,
            k_frfcfs: 4.238185921861712,
            k_cap: 0.75,
            k_share: 0.11547790229468537,
            k_mlp: 0.445578,
        }
    }
}

/// Everything the solver needs to know about the simulated hardware,
/// derived from the cycle tier's [`SystemConfig`] — never duplicated
/// constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticConfig {
    /// Shared LLC capacity in lines.
    pub llc_lines: f64,
    /// LLC hit latency in cycles.
    pub llc_latency: f64,
    /// Core issue/retire width.
    pub width: f64,
    /// Reorder-window size in instructions.
    pub window: f64,
    /// DRAM timing and geometry (the cycle tier's own `TimingSpec`).
    pub spec: TimingSpec,
    /// Calibration constants.
    pub tuning: Tuning,
}

impl AnalyticConfig {
    /// Reads the analytic parameters off a cycle-tier [`SystemConfig`].
    #[must_use]
    pub fn from_system(config: &SystemConfig) -> Self {
        AnalyticConfig {
            llc_lines: (config.llc_geometry.sets() * config.llc_geometry.ways()) as f64,
            llc_latency: config.llc_latency as f64,
            width: asm_cpu::core::DEFAULT_WIDTH as f64,
            window: asm_cpu::core::DEFAULT_WINDOW as f64,
            spec: config.dram.timing_spec(),
            tuning: Tuning::default(),
        }
    }
}

/// Coarse behavioural class of a workload, used to stratify the
/// cross-validation error envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadClass {
    /// Barely touches the LLC (< 0.5 LLC accesses per kilo-instruction).
    Compute,
    /// Reuse-heavy: the working set (mostly) fits the shared LLC.
    CacheSensitive,
    /// Memory-intensive with long sequential runs (row-buffer friendly).
    Streaming,
    /// Memory-intensive with short, scattered bursts.
    Irregular,
}

impl WorkloadClass {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::Compute => "compute",
            WorkloadClass::CacheSensitive => "cache-sensitive",
            WorkloadClass::Streaming => "streaming",
            WorkloadClass::Irregular => "irregular",
        }
    }

    /// All classes, in display order.
    #[must_use]
    pub fn all() -> [WorkloadClass; 4] {
        [
            WorkloadClass::Compute,
            WorkloadClass::CacheSensitive,
            WorkloadClass::Streaming,
            WorkloadClass::Irregular,
        ]
    }
}

/// Classifies a profiled workload relative to an LLC of `llc_lines` lines.
#[must_use]
pub fn classify(profile: &ReuseProfile, llc_lines: f64) -> WorkloadClass {
    let llc_mpki = profile.llc_accesses_per_instr() * 1000.0;
    if llc_mpki < 0.5 {
        WorkloadClass::Compute
    } else if (profile.working_set_lines() as f64) < 1.5 * llc_lines {
        WorkloadClass::CacheSensitive
    } else if profile.seq_frac() >= 0.6 {
        WorkloadClass::Streaming
    } else {
        WorkloadClass::Irregular
    }
}

/// Per-application constants read off a profile once per solve.
#[derive(Debug, Clone, Copy)]
struct AppConsts {
    /// LLC accesses per instruction.
    api: f64,
    /// Write fraction of the LLC stream.
    wfrac: f64,
    /// Sequential fraction of the LLC stream.
    seqf: f64,
    /// Maximum useful miss parallelism.
    mlp: f64,
    /// Profile fingerprint (canonical ordering key).
    key: u64,
}

impl AppConsts {
    const ZERO: AppConsts = AppConsts {
        api: 0.0,
        wfrac: 0.0,
        seqf: 0.0,
        mlp: 1.0,
        key: 0,
    };

    fn of(p: &ReuseProfile) -> Self {
        AppConsts {
            api: p.llc_accesses_per_instr(),
            wfrac: p.write_frac(),
            seqf: p.seq_frac(),
            mlp: p.mlp(),
            key: p.key(),
        }
    }
}

/// An application's alone fixed point: its CPI and LLC miss rate with the
/// whole cache and memory system to itself. A pure function of the profile
/// and the [`AnalyticConfig`], so a campaign computes it once per profile
/// ([`MixSolver::alone`]) and reuses it in every mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AloneFit {
    /// Alone CPI.
    pub cpi: f64,
    /// Alone LLC miss rate.
    pub miss: f64,
}

/// The per-mix analytic solver.
///
/// Construction is cheap, and one instance can solve any number of mixes.
/// [`Self::alone`] and [`Self::solve`] are the allocation-free hot path
/// (enforced by asm-lint R9); [`Self::solution`] materialises the result.
#[derive(Debug, Clone)]
pub struct MixSolver {
    cfg: AnalyticConfig,
    n: usize,
    api: [f64; MAX_APPS],
    cpi_alone: [f64; MAX_APPS],
    cpi_shared: [f64; MAX_APPS],
    miss_alone: [f64; MAX_APPS],
    miss_shared: [f64; MAX_APPS],
}

impl MixSolver {
    /// Creates a solver for the given hardware model.
    #[must_use]
    pub fn new(cfg: AnalyticConfig) -> Self {
        MixSolver {
            cfg,
            n: 0,
            api: [0.0; MAX_APPS],
            cpi_alone: [1.0; MAX_APPS],
            cpi_shared: [1.0; MAX_APPS],
            miss_alone: [0.0; MAX_APPS],
            miss_shared: [0.0; MAX_APPS],
        }
    }

    /// The hardware model this solver was built with.
    #[must_use]
    pub fn config(&self) -> &AnalyticConfig {
        &self.cfg
    }

    /// The alone pass: `app`'s fixed point against the full cache, with
    /// no other application in the mix.
    #[must_use]
    pub fn alone(&self, app: &ReuseProfile) -> AloneFit {
        let mut cs = [AppConsts::ZERO; MAX_APPS];
        cs[0] = AppConsts::of(app);
        let mut cpi = [1.0f64; MAX_APPS];
        let mut miss = [0.0f64; MAX_APPS];
        for _ in 0..self.cfg.tuning.iters {
            relax_once(&self.cfg, &[app], &cs, &[0], &mut cpi, &mut miss);
        }
        AloneFit {
            cpi: cpi[0],
            miss: miss[0],
        }
    }

    /// Solves one mix: the shared fixed point, seeded from each
    /// application's alone fit (`alone[i]` is [`Self::alone`] of
    /// `apps[i]`). Results are read back with [`Self::solution`].
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or larger than [`MAX_APPS`], or if
    /// `alone` does not hold one fit per application.
    pub fn solve(&mut self, apps: &[&ReuseProfile], alone: &[AloneFit]) {
        let n = apps.len();
        assert!(n >= 1 && n <= MAX_APPS, "mix size {n} out of range");
        assert_eq!(alone.len(), n, "one alone fit per application");
        let mut cs = [AppConsts::ZERO; MAX_APPS];
        let mut ord = [0usize; MAX_APPS];
        let mut cpi = [1.0f64; MAX_APPS];
        let mut miss = [0.0f64; MAX_APPS];
        for i in 0..n {
            cs[i] = AppConsts::of(apps[i]);
            ord[i] = i;
            cpi[i] = alone[i].cpi;
            miss[i] = alone[i].miss;
        }
        // Canonical order: all reductions below iterate in profile-key
        // order, making the solve bitwise invariant under permutation of
        // `apps` (ties are bitwise-identical apps, so their relative
        // order cannot matter).
        ord[..n].sort_unstable_by_key(|&i| cs[i].key);
        self.cpi_alone = cpi;
        self.miss_alone = miss;
        for _ in 0..self.cfg.tuning.iters {
            relax_once(&self.cfg, apps, &cs, &ord[..n], &mut cpi, &mut miss);
        }
        self.cpi_shared = cpi;
        self.miss_shared = miss;
        for i in 0..n {
            self.api[i] = cs[i].api;
        }
        self.n = n;
    }

    /// Materialises the last [`Self::solve`] into a [`MixSolution`].
    ///
    /// # Panics
    ///
    /// Panics if `apps` does not match the mix passed to `solve`.
    #[must_use]
    pub fn solution(&self, apps: &[&ReuseProfile]) -> MixSolution {
        assert_eq!(apps.len(), self.n, "solution() mix must match solve()");
        let n = self.n;
        let mut sol = MixSolution {
            app_names: apps.iter().map(|p| p.name().to_owned()).collect(),
            classes: apps
                .iter()
                .map(|p| classify(p, self.cfg.llc_lines))
                .collect(),
            slowdowns: Vec::with_capacity(n),
            cpi_alone: self.cpi_alone[..n].to_vec(),
            cpi_shared: self.cpi_shared[..n].to_vec(),
            miss_alone: self.miss_alone[..n].to_vec(),
            miss_shared: self.miss_shared[..n].to_vec(),
            car_alone: Vec::with_capacity(n),
            car_shared: Vec::with_capacity(n),
        };
        for i in 0..n {
            let car_alone = self.api[i] / self.cpi_alone[i];
            let car_shared = self.api[i] / self.cpi_shared[i];
            sol.car_alone.push(car_alone);
            sol.car_shared.push(car_shared);
            // ASM closed form: slowdown = CAR_alone / CAR_shared, which
            // reduces to a CPI ratio because `api` is tier-invariant.
            sol.slowdowns
                .push((self.cpi_shared[i] / self.cpi_alone[i]).max(1.0));
        }
        sol
    }

    /// Convenience: each application's [`Self::alone`] fit, then
    /// [`Self::solve`] and [`Self::solution`].
    pub fn run(&mut self, apps: &[&ReuseProfile]) -> MixSolution {
        let alone: Vec<AloneFit> = apps.iter().map(|p| self.alone(p)).collect();
        self.solve(apps, &alone);
        self.solution(apps)
    }
}

/// One damped fixed-point sweep over the applications listed in `ord`
/// (their canonical order). Only indices in `ord` are touched.
fn relax_once(
    cfg: &AnalyticConfig,
    apps: &[&ReuseProfile],
    cs: &[AppConsts; MAX_APPS],
    ord: &[usize],
    cpi: &mut [f64; MAX_APPS],
    miss: &mut [f64; MAX_APPS],
) {
    let t = &cfg.tuning;
    // LLC access rates at the current CPI state.
    let mut a = [0.0f64; MAX_APPS];
    for &i in ord {
        a[i] = cs[i].api / cpi[i];
    }
    // Cache stage: critical gap -> miss rate per app. In a shared mix the
    // Che contention delta over the own-footprint miss rate is scaled by
    // `k_share` (see `Tuning::k_share`); the delta is non-negative because
    // extra occupancy can only shrink the critical gap.
    let cap = cfg.llc_lines * t.k_cap;
    for &i in ord {
        miss[i] = if a[i] > 0.0 {
            let shared = apps[i].tail_at(critical_gap(apps, &a, ord, i, cap));
            if ord.len() > 1 {
                let own =
                    apps[i].tail_at(critical_gap(apps, &a, std::slice::from_ref(&i), i, cap));
                (own + t.k_share * (shared - own)).clamp(0.0, 1.0)
            } else {
                shared
            }
        } else {
            0.0
        };
    }
    // Memory stage: traffic, row locality, per-app channel backlog.
    let mut traffic = [0.0f64; MAX_APPS];
    let mut total_traffic = 0.0f64;
    for &i in ord {
        traffic[i] = cs[i].api * miss[i] * (1.0 + cs[i].wfrac) / cpi[i];
        total_traffic += traffic[i];
    }
    let mut rh = [0.0f64; MAX_APPS];
    let mut par = [1.0f64; MAX_APPS];
    let mut backlog = [0.0f64; MAX_APPS];
    let mut util = 0.0f64;
    for &i in ord {
        let share = if total_traffic > 0.0 {
            traffic[i] / total_traffic
        } else {
            1.0
        };
        let base = (cs[i].seqf * t.k_row).clamp(0.0, 1.0);
        rh[i] = base * (share + (1.0 - share) * t.k_row_mix);
        let slot = cfg.spec.burst_slot().max(cfg.spec.bank_slot(rh[i]));
        util += traffic[i] * slot;
        let rmpi = cs[i].api * miss[i] * (1.0 - cs[i].wfrac);
        let mlp_cap = (t.k_mlp * cs[i].mlp).max(1.0);
        par[i] = (t.k_par * rmpi * cfg.window).clamp(1.0, mlp_cap);
        // Channel backlog this app keeps in flight: each outstanding read
        // drags its fill plus the dirty writebacks it evicts through the
        // same channel, (1 + wfrac) / (1 - wfrac) DRAM ops per read.
        let ops_per_read = (1.0 + cs[i].wfrac) / (1.0 - cs[i].wfrac).max(0.05);
        backlog[i] = par[i] * ops_per_read * slot;
    }
    let rho = util.min(t.max_util);
    let mean_slot = if total_traffic > 0.0 {
        util / total_traffic
    } else {
        0.0
    };
    let queue_wait = t.k_queue * mean_slot * rho / (1.0 - rho);
    // Core stage: next CPI per app, damped.
    for &i in ord {
        // Self-queueing: a deep-MLP app's own outstanding requests
        // serialise behind each other at the channel.
        let w_self = t.k_self * backlog[i];
        // Write-drain disruption: writeback bursts close rows mid-stream;
        // open-row readers (high rh) pay the re-open cost most often.
        let wratio = cs[i].wfrac / (1.0 - cs[i].wfrac).max(0.05);
        let w_write = par[i]
            * wratio
            * cfg.spec.avg_read_latency(0.0)
            * (t.k_wr + t.k_wr_rh * rh[i] * rh[i]);
        // Cross-app queueing with the FR-FCFS row-hit-first bias: a
        // low-row-locality app waits extra behind row-hit streams. Summed
        // over all of `ord` then corrected by the (bias-1) self term so
        // bitwise-identical twins read bitwise-identical sums.
        let mut cross_sum = 0.0f64;
        for &j in ord {
            let bias = 1.0 + t.k_frfcfs * (rh[j] - rh[i]).max(0.0);
            cross_sum += backlog[j] * bias;
        }
        let w_cross = t.k_cross * (cross_sum - backlog[i]);
        let lat = t.miss_extra
            + cfg.spec.avg_read_latency(rh[i])
            + w_self
            + w_write
            + w_cross
            + queue_wait;
        let rmpi = cs[i].api * miss[i] * (1.0 - cs[i].wfrac);
        let hit_stall = t.k_hit * cs[i].api * (1.0 - miss[i]) * cfg.llc_latency;
        let mut next = 1.0 / cfg.width + hit_stall + rmpi * lat / par[i];
        if util > t.max_util {
            // Saturation: demand-proportional rationing stretches time so
            // total traffic fits the bottleneck.
            next = next.max(cpi[i] * util / t.max_util);
        }
        cpi[i] += t.damping * (next - cpi[i]);
    }
}

/// The largest reuse gap of app `i` that still hits: geometric bisection
/// on `Σ_j u_j(g · a_j / a_i) < C`. Monotone in `g`, fixed step count.
fn critical_gap(
    apps: &[&ReuseProfile],
    a: &[f64; MAX_APPS],
    ord: &[usize],
    i: usize,
    llc_lines: f64,
) -> f64 {
    let occupancy = |g: f64| {
        let mut occ = 0.0f64;
        for &j in ord {
            occ += apps[j].footprint(g * a[j] / a[i]);
        }
        occ
    };
    if occupancy(GAP_MAX) < llc_lines {
        return GAP_MAX;
    }
    let (mut lo, mut hi) = (1.0f64, GAP_MAX);
    for _ in 0..GAP_SEARCH_ITERS {
        let mid = (lo * hi).sqrt();
        if occupancy(mid) < llc_lines {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The solved mix: per-application slowdowns plus the intermediate model
/// quantities (useful for cross-validation and debugging).
#[derive(Debug, Clone, PartialEq)]
pub struct MixSolution {
    /// Workload name per app, in mix order.
    pub app_names: Vec<String>,
    /// Behavioural class per app.
    pub classes: Vec<WorkloadClass>,
    /// ASM slowdown per app (`CAR_alone / CAR_shared`, clamped ≥ 1).
    pub slowdowns: Vec<f64>,
    /// Alone CPI per app.
    pub cpi_alone: Vec<f64>,
    /// Shared CPI per app.
    pub cpi_shared: Vec<f64>,
    /// Alone LLC miss rate per app.
    pub miss_alone: Vec<f64>,
    /// Shared LLC miss rate per app.
    pub miss_shared: Vec<f64>,
    /// Alone committed LLC accesses per cycle.
    pub car_alone: Vec<f64>,
    /// Shared committed LLC accesses per cycle.
    pub car_shared: Vec<f64>,
}

impl MixSolution {
    /// Unfairness: the maximum slowdown in the mix.
    #[must_use]
    pub fn unfairness(&self) -> f64 {
        self.slowdowns.iter().fold(1.0f64, |m, &s| m.max(s))
    }

    /// Weighted speedup: `Σ 1/slowdown_i`.
    #[must_use]
    pub fn weighted_speedup(&self) -> f64 {
        self.slowdowns.iter().map(|&s| 1.0 / s).sum()
    }

    /// Harmonic speedup: `n / Σ slowdown_i`.
    #[must_use]
    pub fn harmonic_speedup(&self) -> f64 {
        let total: f64 = self.slowdowns.iter().sum();
        self.slowdowns.len() as f64 / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileParams;
    use asm_cpu::AppProfile;

    fn extract(name: &str, mpk: u32, ws: u64, hot: u64, hf: f64, run: u32, mlp: u32) -> ReuseProfile {
        let p = AppProfile::builder(name)
            .mem_per_kilo(mpk)
            .working_set_lines(ws)
            .hot_lines(hot)
            .hot_frac(hf)
            .seq_run(run)
            .mlp(mlp)
            .build();
        ReuseProfile::extract(&p, &ProfileParams::default())
    }

    fn cfg() -> AnalyticConfig {
        AnalyticConfig::from_system(&SystemConfig::default())
    }

    #[test]
    fn identical_pair_contends_symmetrically() {
        let p = extract("hog", 120, 1 << 20, 8 << 10, 0.3, 2, 10);
        let mut s = MixSolver::new(cfg());
        let sol = s.run(&[&p, &p]);
        assert!(sol.slowdowns[0] > 1.0, "{:?}", sol.slowdowns);
        assert_eq!(sol.slowdowns[0].to_bits(), sol.slowdowns[1].to_bits());
        assert!(sol.miss_shared[0] >= sol.miss_alone[0] - 1e-12);
    }

    #[test]
    fn compute_bound_app_is_barely_slowed() {
        let light = extract("light", 2, 1 << 9, 1 << 8, 0.95, 16, 2);
        let hog = extract("hog", 120, 1 << 20, 8 << 10, 0.3, 2, 10);
        let mut s = MixSolver::new(cfg());
        let sol = s.run(&[&light, &hog]);
        // The light app barely touches the LLC, so even a 100% shared miss
        // rate (the hog evicts its lines between rare reuses) costs little;
        // the hog feels only the light app's residual queueing (the cycle
        // tier's interference matrix shows compute-ish aggressors still
        // cost irregular victims up to ~1.4×, so modest is correct here —
        // near-zero is not).
        assert!(sol.slowdowns[0] < 1.5, "light {}", sol.slowdowns[0]);
        assert!(sol.slowdowns[1] < 1.45, "hog {}", sol.slowdowns[1]);
        let mut s2 = MixSolver::new(cfg());
        let heavy = s2.run(&[&hog, &hog]).slowdowns[0];
        assert!(
            sol.slowdowns[1] < heavy,
            "light partner {} should cost the hog less than a second hog {heavy}",
            sol.slowdowns[1]
        );
    }

    #[test]
    fn solve_is_bitwise_deterministic() {
        let a = extract("a", 60, 1 << 16, 1 << 12, 0.5, 8, 8);
        let b = extract("b", 110, 1 << 19, 1 << 8, 0.05, 96, 12);
        let mut s1 = MixSolver::new(cfg());
        let mut s2 = MixSolver::new(cfg());
        let x = s1.run(&[&a, &b]);
        let y = s2.run(&[&a, &b]);
        for i in 0..2 {
            assert_eq!(x.slowdowns[i].to_bits(), y.slowdowns[i].to_bits());
            assert_eq!(x.cpi_shared[i].to_bits(), y.cpi_shared[i].to_bits());
        }
    }

    #[test]
    fn permutation_invariance_is_bitwise() {
        let a = extract("a", 60, 1 << 16, 1 << 12, 0.5, 8, 8);
        let b = extract("b", 110, 1 << 19, 1 << 8, 0.05, 96, 12);
        let c = extract("c", 35, 30 << 10, 12 << 10, 0.75, 12, 4);
        let mut s = MixSolver::new(cfg());
        let fwd = s.run(&[&a, &b, &c]);
        let rev = s.run(&[&c, &a, &b]);
        // Slowdowns follow their app, bit for bit.
        assert_eq!(fwd.slowdowns[0].to_bits(), rev.slowdowns[1].to_bits());
        assert_eq!(fwd.slowdowns[1].to_bits(), rev.slowdowns[2].to_bits());
        assert_eq!(fwd.slowdowns[2].to_bits(), rev.slowdowns[0].to_bits());
    }

    #[test]
    fn fitting_working_set_misses_only_cold() {
        // 8k-line working set in a 32k-line LLC: alone misses ≈ compulsory.
        let p = extract("fits", 50, 1 << 13, 1 << 10, 0.5, 4, 4);
        let mut s = MixSolver::new(cfg());
        let sol = s.run(&[&p]);
        assert!(
            sol.miss_alone[0] <= p.cold_frac() + 0.05,
            "miss {} vs cold {}",
            sol.miss_alone[0],
            p.cold_frac()
        );
        assert_eq!(sol.slowdowns[0].to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn more_sharers_mean_more_slowdown() {
        let p = extract("hog", 120, 1 << 20, 8 << 10, 0.3, 2, 10);
        let mut s = MixSolver::new(cfg());
        let two = s.run(&[&p, &p]).slowdowns[0];
        let four = s.run(&[&p, &p, &p, &p]).slowdowns[0];
        assert!(four > two, "two {two} four {four}");
    }

    #[test]
    fn classification_matches_intuition() {
        let c = cfg();
        let compute = extract("light", 2, 1 << 9, 1 << 8, 0.95, 16, 2);
        let cache = extract("cache", 35, 30 << 10, 12 << 10, 0.75, 12, 4);
        let stream = extract("stream", 110, 1 << 19, 1 << 8, 0.05, 96, 12);
        let irreg = extract("irreg", 120, 1 << 20, 8 << 10, 0.3, 2, 10);
        assert_eq!(classify(&compute, c.llc_lines), WorkloadClass::Compute);
        assert_eq!(classify(&cache, c.llc_lines), WorkloadClass::CacheSensitive);
        assert_eq!(classify(&stream, c.llc_lines), WorkloadClass::Streaming);
        assert_eq!(classify(&irreg, c.llc_lines), WorkloadClass::Irregular);
    }

    #[test]
    fn aggregate_metrics_are_consistent() {
        let a = extract("a", 60, 1 << 16, 1 << 12, 0.5, 8, 8);
        let b = extract("b", 110, 1 << 19, 1 << 8, 0.05, 96, 12);
        let mut s = MixSolver::new(cfg());
        let sol = s.run(&[&a, &b]);
        assert!(sol.unfairness() >= 1.0);
        assert!(sol.weighted_speedup() <= 2.0 + 1e-12);
        assert!(sol.harmonic_speedup() <= 1.0 + 1e-12);
    }
}
