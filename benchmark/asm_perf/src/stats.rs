//! Order statistics over repetition timings and the FNV-64 digest that
//! proves a simulator-only speed-up moved no simulated statistic.

/// Median and quartiles by the *exclusive* method with linear
/// interpolation — the method of Python's `statistics.quantiles(v, n=4)`,
/// which the driver applies to the per-run values this benchmark prints,
/// so spreads computed here and there agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Quartiles of `values`, or `None` when empty. A single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Position k(n+1)/4 on a 1-based axis, clamped into the data.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    Some(Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
        min: v[0],
        max: v[n - 1],
        n,
    })
}

/// Median of `values` (0 when empty, so a metric of an unexercised layer
/// reads 0).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q.median)
}

/// Smallest of `values` (0 when empty). Subtraction between variants
/// uses minima: host noise only ever adds time.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// FNV-1a, 64-bit, over little-endian words. Order-sensitive by
/// construction: the digest covers *which quantum* produced a value, not
/// just the multiset of values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the bit pattern: `-0.0` and `0.0`, or two NaN payloads,
    /// are different results and must digest differently.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    pub fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!((q.min, q.max, q.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn quartiles_of_small_inputs() {
        assert!(quartiles(&[]).is_none());
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        // Two values: the exclusive method extrapolates to the ends.
        let q = quartiles(&[1.0, 3.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.5, 2.0, 3.5));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(min(&[4.0, 2.0, 9.0]), 2.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn digest_is_stable() {
        // FNV-1a test vectors: "" and "a".
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut a = Digest::default();
        let mut b = Digest::default();
        for d in [&mut a, &mut b] {
            d.f64s(&[1.5, 2.5]);
            d.str("ASM");
        }
        assert_eq!(a, b);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let mut a = Digest::default();
        a.f64s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f64s(&[2.0, 1.0]);
        assert_ne!(a, b);
        let mut z = Digest::default();
        z.f64(0.0);
        let mut nz = Digest::default();
        nz.f64(-0.0);
        assert_ne!(z, nz);
        // Length prefixes keep [1][2,3] apart from [1,2][3].
        let mut x = Digest::default();
        x.u64s(&[1]);
        x.u64s(&[2, 3]);
        let mut y = Digest::default();
        y.u64s(&[1, 2]);
        y.u64s(&[3]);
        assert_ne!(x, y);
    }
}
