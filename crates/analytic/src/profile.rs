//! Reuse-gap profile extraction: one deterministic pass per workload.
//!
//! The profiling pass replays the workload's synthetic address stream
//! (the same [`AddressStream`] generator the cycle tier's cores use)
//! through a real private-L1 model and summarises the *post-L1* access
//! stream — the stream the shared LLC actually sees — as a reuse-gap
//! histogram plus a handful of scalar counters. The pass always uses
//! application slot 0 and a fixed canonical seed, so a workload's profile
//! is independent of where it appears in a mix (this is what makes the
//! analytic tier exactly permutation-invariant).
//!
//! Gaps are bucketed on a quarter-octave grid (bucket boundaries grow by
//! ×2^¼ ≈ 19/16, pure integer arithmetic) so the histogram stays ~170
//! buckets regardless of working-set size. From the histogram the profile
//! derives, at load time (never serialised — bitwise reproducibility):
//!
//! - the **tail function** `tail(g) = P(reuse gap ≥ g)`, cold (first-touch)
//!   accesses counted as gap ∞;
//! - the **footprint curve** `u(n) = Σ_{t<n} P(gap > t)` — the expected
//!   number of distinct lines in a window of `n` consecutive LLC accesses
//!   (Denning's working-set identity), evaluated by trapezoid integration
//!   of the tail over the bucket grid.

use asm_cache::SetAssocCache;
use asm_cpu::{AddressStream, AppProfile};
use asm_simcore::hash::DetHasher;
use asm_simcore::persist::{ensure, PersistError};
use asm_simcore::AppId;

/// Version tag folded into every profile key: bump when the extraction
/// algorithm changes so stale disk caches miss instead of lying.
pub const PROFILE_ALGORITHM: &str = "reuse-gap/1";

/// Parameters of the profiling pass.
///
/// The defaults match the cycle tier's Table 2 private L1 (64 KB, 4-way)
/// and a canonical stream seed that is deliberately *not* tied to any
/// experiment seed: the profile describes the workload, not one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileParams {
    /// Private-L1 geometry filtering the stream before the LLC.
    pub l1_geometry: asm_cache::CacheGeometry,
    /// Canonical seed for the profiled address stream.
    pub stream_seed: u64,
}

impl Default for ProfileParams {
    fn default() -> Self {
        ProfileParams {
            l1_geometry: asm_cache::CacheGeometry::from_capacity(64 * 1024, 4),
            stream_seed: 0xC0FF_EE00_5EED,
        }
    }
}

impl ProfileParams {
    /// Profiling parameters matching a cycle-tier [`asm_core::SystemConfig`]
    /// (same L1 geometry; the canonical stream seed is kept).
    #[must_use]
    pub fn from_system(config: &asm_core::SystemConfig) -> Self {
        ProfileParams {
            l1_geometry: config.l1_geometry,
            ..Self::default()
        }
    }

    /// Memory operations sampled for a working set of `ws` lines: enough
    /// passes over the working set to populate the deep gap buckets, within
    /// fixed bounds (2^19 to 2^22). Extraction then costs 12–510 ms per
    /// profile on a 2-vCPU host — the largest working sets (`mcf_like`,
    /// `cg_like`) sit at the cap, about 0.5 s each — and 2.0–3.6 s for the
    /// whole suite.
    #[must_use]
    pub fn sample_ops(&self, ws: u64) -> u64 {
        (8 * ws.max(1)).clamp(1 << 19, 1 << 22)
    }
}

/// Binary octaves the grid spans: every bound lies below `2^(OCTAVES - 1)`.
const OCTAVES: usize = 45;

/// The grid step: `×19/16`, but at least `+1`.
const fn next_bound(b: u64) -> u64 {
    let q = b * 19 / 16;
    if q > b + 1 {
        q
    } else {
        b + 1
    }
}

const fn grid_len() -> usize {
    let (mut n, mut b) = (0, 1u64);
    while b < 1 << (OCTAVES - 1) {
        n += 1;
        b = next_bound(b);
    }
    n
}

/// Number of gap buckets (one per bound of [`BOUNDS`]).
const BUCKETS: usize = grid_len();

/// The quarter-octave gap-bucket lower bounds: 1, 2, 3, 4, … then ×19/16
/// per step in integer arithmetic, up to 2^44. Held as floats, which
/// represent every bound (and every difference of two) exactly. One grid
/// for every profile (the disk format stores one count per bound,
/// validated against this grid on load).
const BOUNDS: [f64; BUCKETS] = {
    let mut out = [0.0; BUCKETS];
    let (mut k, mut b) = (0, 1);
    while k < BUCKETS {
        out[k] = b as f64;
        b = next_bound(b);
        k += 1;
    }
    out
};

/// `OCTAVE_START[e]`: the last bucket whose bound is `<= 2^e`, so the
/// bucket of any `m` in `[2^e, 2^(e+1))` is at most five steps past it.
const OCTAVE_START: [usize; OCTAVES] = {
    let mut out = [0; OCTAVES];
    let (mut e, mut k) = (0, 0);
    while e < OCTAVES {
        while k + 1 < BUCKETS && BOUNDS[k + 1] <= (1u64 << e) as f64 {
            k += 1;
        }
        out[e] = k;
        e += 1;
    }
    out
};

/// The bucket `k` with `BOUNDS[k] <= m < BOUNDS[k + 1]` (the last bucket
/// past the grid): by definition `BOUNDS.partition_point(|&b| b <= m) - 1`,
/// found in constant time from `m`'s binary exponent. Defined for
/// `m >= 1`; an integer gap is looked up as `gap as f64`, which is exact
/// on the grid (a gap past 2^53 rounds, but every bound is below 2^44).
fn bucket(m: f64) -> usize {
    let exp = ((m.to_bits() >> 52) & 0x7ff) as usize;
    let mut k = OCTAVE_START[exp.saturating_sub(1023).min(OCTAVES - 1)];
    while k + 1 < BUCKETS && BOUNDS[k + 1] <= m {
        k += 1;
    }
    k
}

/// A workload's reuse-gap summary: everything the analytic tier needs to
/// know about one application, extracted in one deterministic pass.
/// `Default` is the blank a cache load fills in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReuseProfile {
    /// Workload name (the [`AppProfile`] name).
    name: String,
    /// Staleness fingerprint: hash of the source profile, the profiling
    /// parameters and [`PROFILE_ALGORITHM`].
    key: u64,
    /// Memory operations sampled (pre-L1).
    ops: u64,
    /// Post-L1 accesses (L1 misses — the LLC-visible stream length).
    llc: u64,
    /// Writes among the LLC-visible accesses.
    writes: u64,
    /// LLC-visible accesses to `previous line + 1` (row-locality proxy).
    seq: u64,
    /// First-touch LLC accesses (compulsory; gap = ∞).
    cold: u64,
    /// Distinct lines touched post-L1 over the whole sample.
    lines_touched: u64,
    /// Source-model memory ops per kilo-instruction.
    mem_per_kilo: u32,
    /// Source-model maximum memory-level parallelism.
    mlp: u32,
    /// Source-model working-set size in lines.
    working_set_lines: u64,
    /// Gap counts per bucket: gaps `g` with `BOUNDS[k] <= g < BOUNDS[k+1]`.
    counts: Vec<u64>,
    /// Derived: `P(gap >= BOUNDS[k])`, cold counted as gap ∞.
    tail: Vec<f64>,
    /// Derived: `∫₀^BOUNDS[k] P(gap > x) dx` — footprint at each bound.
    fpt: Vec<f64>,
}

impl ReuseProfile {
    /// Runs the profiling pass for `profile` under `params`.
    #[must_use]
    pub fn extract(profile: &AppProfile, params: &ProfileParams) -> Self {
        Self::extract_with(profile, params, |gap| bucket(gap as f64))
    }

    /// [`Self::extract`] with the gap-bucket lookup as a parameter, so a
    /// test can bin the same pass with a reference lookup.
    fn extract_with(
        profile: &AppProfile,
        params: &ProfileParams,
        bucket_of: impl Fn(u64) -> usize,
    ) -> Self {
        let ws = profile.working_set_lines().max(1);
        let ops = params.sample_ops(ws);
        let mut stream = AddressStream::new(profile, 0, params.stream_seed);
        let mut l1 = SetAssocCache::new(params.l1_geometry, 1);
        let mut counts = vec![0u64; BUCKETS];
        // Last LLC-access index per line; u64::MAX = never touched. Slot 0
        // keeps raw line addresses in [0, ws).
        let mut last = vec![u64::MAX; ws as usize];
        let (mut llc, mut writes, mut seq, mut cold, mut touched) = (0, 0, 0, 0, 0u64);
        let mut prev_line = u64::MAX;
        for _ in 0..ops {
            let op = stream.next_op();
            if l1.access(op.line, AppId::new(0), op.is_write).hit {
                continue;
            }
            let raw = op.line.raw();
            let idx = raw as usize;
            if op.is_write {
                writes += 1;
            }
            if prev_line != u64::MAX && raw == prev_line + 1 {
                seq += 1;
            }
            prev_line = raw;
            let prev = last[idx];
            if prev == u64::MAX {
                cold += 1;
                touched += 1;
            } else {
                counts[bucket_of((llc - prev).max(1))] += 1;
            }
            last[idx] = llc;
            llc += 1;
        }
        let mut p = ReuseProfile {
            name: profile.name().to_owned(),
            key: profile_key(profile, params),
            ops,
            llc,
            writes,
            seq,
            cold,
            lines_touched: touched,
            mem_per_kilo: profile.mem_per_kilo(),
            mlp: profile.mlp(),
            working_set_lines: ws,
            counts,
            tail: Vec::new(),
            fpt: Vec::new(),
        };
        p.finish();
        p
    }

    /// What a loaded profile must satisfy before its curves are derived:
    /// one count per bound of the canonical grid, and counters that are
    /// consistent with each other.
    fn check_restored(&mut self) -> Result<(), PersistError> {
        ensure(
            self.counts.len() == BUCKETS,
            "bucket counts off the canonical grid",
        )?;
        let accesses = self
            .counts
            .iter()
            .try_fold(self.cold, |sum, &c| sum.checked_add(c));
        ensure(
            accesses == Some(self.llc)
                && self.writes <= self.llc
                && self.seq <= self.llc
                && self.llc <= self.ops,
            "inconsistent counters",
        )?;
        self.finish();
        Ok(())
    }

    /// Recomputes the derived tail/footprint curves from the integer
    /// counters. Always recomputed (extract and load paths alike) so the
    /// floats are a pure function of the integers.
    fn finish(&mut self) {
        let n = BUCKETS;
        let total = self.llc.max(1) as f64;
        self.tail = vec![0.0; n + 1];
        self.fpt = vec![0.0; n + 1];
        // Suffix sums: tail[k] = P(gap >= BOUNDS[k]); beyond the last
        // bound only cold (gap ∞) remains.
        let mut above = self.cold;
        self.tail[n] = above as f64 / total;
        for k in (0..n).rev() {
            above += self.counts[k];
            self.tail[k] = above as f64 / total;
        }
        // Trapezoid integral of the tail: fpt[k] = ∫₀^BOUNDS[k] tail.
        // Below BOUNDS[0] = 1 every gap qualifies (tail = 1).
        self.fpt[0] = 1.0;
        for k in 0..n {
            let hi = if k + 1 < n {
                BOUNDS[k + 1]
            } else {
                // Closing segment: flat cold tail, integrated on demand in
                // `footprint`; store the value at the last bound only.
                BOUNDS[k]
            };
            let w = hi - BOUNDS[k];
            self.fpt[k + 1] = self.fpt[k] + w * 0.5 * (self.tail[k] + self.tail[k.min(n - 1) + 1]);
        }
    }

    /// Workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Staleness fingerprint (see [`profile_key`]).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// LLC accesses per instruction: the post-L1 access rate scaled by the
    /// source model's memory intensity. Tier-invariant, so the ASM CAR
    /// ratio reduces to a CPI ratio.
    #[must_use]
    pub fn llc_accesses_per_instr(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        (self.llc as f64 / self.ops as f64) * (f64::from(self.mem_per_kilo) / 1000.0)
    }

    /// Write fraction of the LLC-visible stream.
    #[must_use]
    pub fn write_frac(&self) -> f64 {
        if self.llc == 0 {
            return 0.0;
        }
        self.writes as f64 / self.llc as f64
    }

    /// Sequential fraction of the LLC-visible stream (row-locality proxy).
    #[must_use]
    pub fn seq_frac(&self) -> f64 {
        if self.llc == 0 {
            return 0.0;
        }
        self.seq as f64 / self.llc as f64
    }

    /// Cold (compulsory) fraction of the LLC-visible stream.
    #[must_use]
    pub fn cold_frac(&self) -> f64 {
        if self.llc == 0 {
            return 0.0;
        }
        self.cold as f64 / self.llc as f64
    }

    /// Source-model maximum memory-level parallelism.
    #[must_use]
    pub fn mlp(&self) -> f64 {
        f64::from(self.mlp.max(1))
    }

    /// Source-model working-set size in lines.
    #[must_use]
    pub fn working_set_lines(&self) -> u64 {
        self.working_set_lines
    }

    /// `P(reuse gap ≥ g)` over the LLC-visible stream, cold as gap ∞.
    #[must_use]
    pub fn tail_at(&self, g: f64) -> f64 {
        if g <= 1.0 {
            return 1.0;
        }
        let n = BUCKETS;
        let last = BOUNDS[n - 1];
        if g >= last {
            return self.tail[n];
        }
        // BOUNDS[k] <= g < BOUNDS[k+1]: log-linear interpolation of the
        // tail across the bucket (bounds are geometric).
        let k = bucket(g);
        let (b0, b1) = (BOUNDS[k], BOUNDS[k + 1]);
        let t = (g - b0) / (b1 - b0);
        self.tail[k] + t * (self.tail[k + 1] - self.tail[k])
    }

    /// Footprint `u(m)`: expected distinct lines in a window of `m`
    /// consecutive LLC accesses, capped at the working set.
    #[must_use]
    pub fn footprint(&self, m: f64) -> f64 {
        let cap = self.working_set_lines as f64;
        if m <= 0.0 {
            return 0.0;
        }
        if m <= 1.0 {
            return m.min(cap);
        }
        let n = BUCKETS;
        let last = BOUNDS[n - 1];
        let u = if m >= last {
            // Beyond the grid only the flat cold tail keeps growing.
            self.fpt[n] + (m - last) * self.tail[n]
        } else {
            let k = bucket(m);
            let (b0, b1) = (BOUNDS[k], BOUNDS[k + 1]);
            let t = (m - b0) / (b1 - b0);
            let tail_m = self.tail[k] + t * (self.tail[k + 1] - self.tail[k]);
            self.fpt[k] + (m - b0) * 0.5 * (self.tail[k] + tail_m)
        };
        u.min(cap)
    }
}

// The integer counters only. The floating-point curves are never stored:
// they are recomputed from the integers on load, so a round-tripped profile
// is bitwise identical to a fresh one.
asm_simcore::persist_fields!(ReuseProfile {
    name, key, ops, llc, writes, seq, cold, lines_touched, mem_per_kilo, mlp, working_set_lines,
    counts,
} => ReuseProfile::check_restored);

/// Deterministic fingerprint of (source profile, profiling parameters,
/// extraction algorithm): any change to any of the three invalidates
/// cached profiles.
#[must_use]
pub fn profile_key(profile: &AppProfile, params: &ProfileParams) -> u64 {
    use std::hash::Hasher as _;
    let mut h = DetHasher::default();
    h.write(PROFILE_ALGORITHM.as_bytes());
    h.write(format!("{profile:?}").as_bytes());
    h.write(format!("{params:?}").as_bytes());
    h.write_u64(params.sample_ops(profile.working_set_lines().max(1)));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(ws: u64, hot: u64, hot_frac: f64, run: u32, mpk: u32) -> AppProfile {
        AppProfile::builder("toy")
            .mem_per_kilo(mpk)
            .working_set_lines(ws)
            .hot_lines(hot)
            .hot_frac(hot_frac)
            .seq_run(run)
            .build()
    }

    #[test]
    fn bounds_are_strictly_increasing_quarter_octave() {
        let b: Vec<u64> = BOUNDS.iter().map(|&x| x as u64).collect();
        assert!(b.len() > 100 && b.len() < 300, "{}", b.len());
        assert_eq!(b[0], 1);
        for w in b.windows(2) {
            assert!(w[1] > w[0]);
            // Growth never exceeds the quarter-octave ratio (plus the +1
            // floor for small bounds).
            assert!(w[1] <= (w[0] + 1).max(w[0] * 19 / 16 + 1));
        }
        assert!(b[BUCKETS - 1] < 1 << (OCTAVES - 1));
    }

    /// The grid built the obvious way, as a `Vec`.
    fn reference_bounds() -> Vec<u64> {
        let mut bounds = Vec::new();
        let mut b: u64 = 1;
        while b < 1 << 44 {
            bounds.push(b);
            b = (b + 1).max(b * 19 / 16);
        }
        bounds
    }

    /// The binary-search lookup [`bucket`] must reproduce (`m >= 1`).
    fn reference_bucket(bounds: &[u64], m: f64) -> usize {
        bounds.partition_point(|&b| (b as f64) <= m) - 1
    }

    /// [`ReuseProfile::tail_at`] over `bounds` with the reference lookup.
    fn reference_tail(p: &ReuseProfile, bounds: &[u64], g: f64) -> f64 {
        if g <= 1.0 {
            return 1.0;
        }
        let n = bounds.len();
        let last = bounds[n - 1] as f64;
        if g >= last {
            return p.tail[n];
        }
        let k = reference_bucket(bounds, g);
        let (b0, b1) = (bounds[k] as f64, bounds[k + 1] as f64);
        let t = (g - b0) / (b1 - b0);
        p.tail[k] + t * (p.tail[k + 1] - p.tail[k])
    }

    /// [`ReuseProfile::footprint`] over `bounds` with the reference lookup.
    fn reference_footprint(p: &ReuseProfile, bounds: &[u64], m: f64) -> f64 {
        let cap = p.working_set_lines as f64;
        if m <= 0.0 {
            return 0.0;
        }
        if m <= 1.0 {
            return m.min(cap);
        }
        let n = bounds.len();
        let last = bounds[n - 1] as f64;
        let u = if m >= last {
            p.fpt[n] + (m - last) * p.tail[n]
        } else {
            let k = reference_bucket(bounds, m);
            let (b0, b1) = (bounds[k] as f64, bounds[k + 1] as f64);
            let t = (m - b0) / (b1 - b0);
            let tail_m = p.tail[k] + t * (p.tail[k + 1] - p.tail[k]);
            p.fpt[k] + (m - b0) * 0.5 * (p.tail[k] + tail_m)
        };
        u.min(cap)
    }

    #[test]
    fn bucket_lookup_is_bitwise_the_binary_search() {
        let bounds = reference_bounds();
        let exact: Vec<f64> = bounds.iter().map(|&b| b as f64).collect();
        assert_eq!(BOUNDS[..], exact[..]);
        // Every bound and its float neighbours, then 10k points spread
        // log-uniformly over [1, 2^44].
        let mut probes: Vec<f64> = bounds
            .iter()
            .flat_map(|&b| {
                let b = b as f64;
                [b.next_down(), b, b.next_up()]
            })
            .collect();
        let mut rng = asm_simcore::SimRng::seed_from(0xB0C4E7);
        probes.extend((0..10_000).map(|_| (44.0 * rng.gen_f64()).exp2()));
        probes.push((1u64 << 44) as f64);
        for &m in probes.iter().filter(|&&m| m >= 1.0) {
            assert_eq!(bucket(m), reference_bucket(&bounds, m), "bucket({m})");
        }
        let params = ProfileParams::from_system(&asm_core::SystemConfig::default());
        for app in asm_workloads::suite::all()
            .iter()
            .chain(&asm_workloads::suite::db())
        {
            // The histogram binned with the reference lookup is the same
            // profile, counts and derived curves alike.
            let p = ReuseProfile::extract(app, &params);
            let reference = ReuseProfile::extract_with(app, &params, |gap| {
                bounds.partition_point(|&b| b <= gap) - 1
            });
            assert_eq!(p, reference, "{}", app.name());
            for &m in &probes {
                let name = app.name();
                assert_eq!(
                    p.tail_at(m).to_bits(),
                    reference_tail(&p, &bounds, m).to_bits(),
                    "{name}: tail_at({m})"
                );
                assert_eq!(
                    p.footprint(m).to_bits(),
                    reference_footprint(&p, &bounds, m).to_bits(),
                    "{name}: footprint({m})"
                );
            }
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let p = toy(1 << 14, 256, 0.5, 8, 50);
        let params = ProfileParams::default();
        let a = ReuseProfile::extract(&p, &params);
        let b = ReuseProfile::extract(&p, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn counters_are_consistent() {
        let p = toy(1 << 14, 256, 0.5, 8, 50);
        let r = ReuseProfile::extract(&p, &ProfileParams::default());
        let binned: u64 = r.counts.iter().sum();
        assert_eq!(binned + r.cold, r.llc);
        assert!(r.llc <= r.ops);
        assert!(r.lines_touched <= r.working_set_lines);
        assert!(r.cold >= r.lines_touched); // every touched line was cold once
    }

    #[test]
    fn tail_is_monotone_and_bounded() {
        let p = toy(1 << 15, 512, 0.6, 4, 80);
        let r = ReuseProfile::extract(&p, &ProfileParams::default());
        let mut prev = 1.0f64;
        for g in [1.0, 2.0, 7.5, 100.0, 1e4, 1e7, 1e12] {
            let t = r.tail_at(g);
            assert!(t <= prev + 1e-12, "tail not monotone at {g}");
            assert!((0.0..=1.0).contains(&t));
            prev = t;
        }
    }

    #[test]
    fn footprint_is_monotone_and_capped() {
        let ws = 1u64 << 13;
        let p = toy(ws, 128, 0.3, 8, 100);
        let r = ReuseProfile::extract(&p, &ProfileParams::default());
        let mut prev = 0.0f64;
        for m in [0.5, 1.0, 10.0, 1e3, 1e6, 1e9, 1e13] {
            let u = r.footprint(m);
            assert!(u + 1e-9 >= prev, "footprint not monotone at {m}");
            assert!(u <= ws as f64 + 1e-9);
            prev = u;
        }
        // A window of one access holds exactly one line.
        assert!((r.footprint(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hot_loops_produce_short_gaps() {
        // Nearly all accesses in a tiny hot set: gaps are short, so the
        // tail collapses fast and the footprint saturates near the hot set.
        let p = toy(1 << 20, 64, 0.98, 1, 100);
        let r = ReuseProfile::extract(&p, &ProfileParams::default());
        // The L1 swallows a 64-line hot set almost entirely; what misses
        // into the LLC is the cold/random residue, so just check scale.
        assert!(r.llc < r.ops / 2);
    }

    #[test]
    fn streaming_profiles_are_cold_dominated() {
        let p = toy(1 << 20, 64, 0.02, 64, 100);
        let r = ReuseProfile::extract(&p, &ProfileParams::default());
        assert!(r.seq_frac() > 0.5, "seq {}", r.seq_frac());
        // First sweep over a 1M-line set: a large first-touch share.
        assert!(r.cold_frac() > 0.15, "cold {}", r.cold_frac());
    }

    fn restored(p: &ReuseProfile) -> Result<ReuseProfile, PersistError> {
        use asm_simcore::persist::{Persist as _, StateReader, StateWriter};
        let mut w = StateWriter::new("profile-test", 1);
        p.save(&mut w);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes, "profile-test", 1)?;
        let mut back = ReuseProfile::default();
        back.restore(&mut r)?;
        r.finish()?;
        Ok(back)
    }

    #[test]
    fn round_trip_through_parts_is_identical() {
        let p = toy(1 << 14, 256, 0.5, 8, 50);
        let r = ReuseProfile::extract(&p, &ProfileParams::default());
        assert_eq!(restored(&r).expect("round trip"), r);
    }

    #[test]
    fn inconsistent_parts_rejected() {
        let p = toy(1 << 12, 64, 0.5, 4, 50);
        let r = ReuseProfile::extract(&p, &ProfileParams::default());
        let mut bad = r.clone();
        bad.cold += 1;
        assert!(restored(&bad).is_err());
        // A sum that wraps must not pass for a small one.
        bad.cold = u64::MAX;
        assert!(restored(&bad).is_err());
        let mut bad = r.clone();
        bad.counts.pop();
        assert!(restored(&bad).is_err());
    }

    #[test]
    fn key_tracks_profile_and_params() {
        let params = ProfileParams::default();
        let a = profile_key(&toy(1 << 12, 64, 0.5, 4, 50), &params);
        let b = profile_key(&toy(1 << 12, 64, 0.5, 4, 60), &params);
        assert_ne!(a, b);
        let other = ProfileParams {
            stream_seed: 7,
            ..params
        };
        assert_ne!(a, profile_key(&toy(1 << 12, 64, 0.5, 4, 50), &other));
    }
}
