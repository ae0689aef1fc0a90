//! Floating-point expansion arithmetic.
//!
//! An *expansion* represents a real number exactly as a sum of
//! non-overlapping `f64` components, ordered from smallest to largest
//! magnitude. The operations here follow Shewchuk, *Adaptive Precision
//! Floating-Point Arithmetic and Fast Robust Geometric Predicates*
//! (Discrete & Computational Geometry 18, 1997): every operation is exact,
//! so the sign of the final expansion equals the sign of the real value it
//! represents.
//!
//! This module is internal: the public crate surface exposes only the
//! predicates built on top of it.

/// Exact sum of two doubles: returns `(hi, lo)` with `hi + lo == a + b`
/// exactly and `hi == fl(a + b)`.
#[inline]
pub(crate) fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let hi = a + b;
    let bv = hi - a;
    let av = hi - bv;
    let lo = (a - av) + (b - bv);
    (hi, lo)
}

/// Exact difference of two doubles: returns `(hi, lo)` with
/// `hi + lo == a - b` exactly.
#[inline]
pub(crate) fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let hi = a - b;
    let bv = a - hi;
    let av = hi + bv;
    let lo = (a - av) + (bv - b);
    (hi, lo)
}

/// Exact product of two doubles: returns `(hi, lo)` with
/// `hi + lo == a * b` exactly, using a fused multiply-add.
#[inline]
pub(crate) fn two_product(a: f64, b: f64) -> (f64, f64) {
    let hi = a * b;
    let lo = a.mul_add(b, -hi);
    (hi, lo)
}

/// An exact multi-component floating-point value.
///
/// Components are stored in increasing order of magnitude and are
/// non-overlapping; the represented value is the exact sum of all
/// components. Zero components are eliminated eagerly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Expansion(Vec<f64>);

impl Expansion {
    /// The zero expansion.
    pub(crate) fn zero() -> Self {
        Expansion(Vec::new())
    }

    /// An expansion holding a single double.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "only the unit tests build expansions from one double"
        )
    )]
    pub(crate) fn from_f64(v: f64) -> Self {
        if v == 0.0 {
            Self::zero()
        } else {
            Expansion(vec![v])
        }
    }

    /// The exact value `a - b` as a two-component expansion.
    pub(crate) fn from_diff(a: f64, b: f64) -> Self {
        let (hi, lo) = two_diff(a, b);
        Self::from_parts(hi, lo)
    }

    /// The exact value `a * b` as a two-component expansion.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "only the unit tests build expansions from one product"
        )
    )]
    pub(crate) fn from_product(a: f64, b: f64) -> Self {
        let (hi, lo) = two_product(a, b);
        Self::from_parts(hi, lo)
    }

    fn from_parts(hi: f64, lo: f64) -> Self {
        let mut c = Vec::with_capacity(2);
        if lo != 0.0 {
            c.push(lo);
        }
        if hi != 0.0 {
            c.push(hi);
        }
        Expansion(c)
    }

    /// Exact sum of two expansions (Shewchuk's `linear_expansion_sum` with
    /// zero elimination).
    ///
    /// The linear variant is used (rather than `fast_expansion_sum`)
    /// because it only requires its inputs to be nonoverlapping — the
    /// invariant every operation in this module maintains — whereas the
    /// fast variant needs the stronger "strongly nonoverlapping" property.
    pub(crate) fn add(&self, other: &Expansion) -> Expansion {
        let e = &self.0;
        let f = &other.0;
        if e.is_empty() {
            return other.clone();
        }
        if f.is_empty() {
            return self.clone();
        }
        // Merge the two component sequences by increasing magnitude.
        let mut g = Vec::with_capacity(e.len() + f.len());
        let (mut i, mut j) = (0, 0);
        while i < e.len() && j < f.len() {
            if e[i].abs() <= f[j].abs() {
                g.push(e[i]);
                i += 1;
            } else {
                g.push(f[j]);
                j += 1;
            }
        }
        g.extend_from_slice(&e[i..]);
        g.extend_from_slice(&f[j..]);

        if g.len() == 1 {
            return Expansion(g);
        }
        let mut h = Vec::with_capacity(g.len());
        // Invariant: `big + small` is the exact sum of the components
        // consumed so far, minus the components already emitted into `h`.
        let (mut big, mut small) = two_sum(g[1], g[0]);
        for &gi in &g[2..] {
            let (r, emit) = two_sum(gi, small);
            if emit != 0.0 {
                h.push(emit);
            }
            let (b, s) = two_sum(big, r);
            big = b;
            small = s;
        }
        if small != 0.0 {
            h.push(small);
        }
        if big != 0.0 {
            h.push(big);
        }
        Expansion(h)
    }

    /// Exact difference `self - other`.
    pub(crate) fn sub(&self, other: &Expansion) -> Expansion {
        self.add(&other.negate())
    }

    /// Exact negation.
    pub(crate) fn negate(&self) -> Expansion {
        Expansion(self.0.iter().map(|&c| -c).collect())
    }

    /// Exact product with a single double (Shewchuk's `scale_expansion`
    /// with zero elimination).
    pub(crate) fn scale(&self, b: f64) -> Expansion {
        if self.0.is_empty() || b == 0.0 {
            return Expansion::zero();
        }
        let e = &self.0;
        let mut h = Vec::with_capacity(2 * e.len());
        let (mut q, lo) = two_product(e[0], b);
        if lo != 0.0 {
            h.push(lo);
        }
        for &ei in &e[1..] {
            let (phi, plo) = two_product(ei, b);
            let (sum, err) = two_sum(q, plo);
            if err != 0.0 {
                h.push(err);
            }
            let (newq, err2) = two_sum(phi, sum);
            if err2 != 0.0 {
                h.push(err2);
            }
            q = newq;
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion(h)
    }

    /// Exact product of two expansions (distribute-and-sum).
    pub(crate) fn mul(&self, other: &Expansion) -> Expansion {
        let mut acc = Expansion::zero();
        for &c in &other.0 {
            acc = acc.add(&self.scale(c));
        }
        acc
    }

    /// The sign of the exact value: `-1`, `0`, or `1`.
    ///
    /// Because components are non-overlapping and ordered by magnitude, the
    /// sign of the last (largest) component is the sign of the sum.
    pub(crate) fn sign(&self) -> i32 {
        match self.0.last() {
            None => 0,
            Some(&c) if c > 0.0 => 1,
            Some(&c) if c < 0.0 => -1,
            _ => 0,
        }
    }

    /// Floating-point approximation of the exact value.
    #[cfg(test)]
    pub(crate) fn estimate(&self) -> f64 {
        self.0.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_exact() {
        let (hi, lo) = two_sum(1e16, 1.0);
        assert_eq!(hi, 1e16); // 1.0 is lost in the rounded sum...
        assert_eq!(lo, 1.0); // ...but recovered exactly in the tail.
    }

    #[test]
    fn two_diff_is_exact() {
        let (hi, lo) = two_diff(1e16, 1.0);
        assert_eq!(hi + lo, 1e16 - 1.0);
        let tiny = f64::MIN_POSITIVE;
        let (hi, lo) = two_diff(1.0 + f64::EPSILON, 1.0);
        assert_eq!(hi, f64::EPSILON);
        assert_eq!(lo, 0.0);
        let _ = tiny;
    }

    #[test]
    fn two_product_is_exact() {
        // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60: the last term does not fit in
        // one double together with the rest.
        let a = 1.0 + 2f64.powi(-30);
        let (hi, lo) = two_product(a, a);
        assert_eq!(hi, 1.0 + 2f64.powi(-29));
        assert_eq!(lo, 2f64.powi(-60));
    }

    #[test]
    fn expansion_add_sub_roundtrip() {
        let a = Expansion::from_product(1e20, 1.0 + 2f64.powi(-40));
        let b = Expansion::from_f64(3.5);
        let s = a.add(&b);
        let back = s.sub(&b);
        assert_eq!(back, a);
    }

    #[test]
    fn expansion_sign_detects_tiny_differences() {
        // x = (1 + eps)^2 - (1 + 2 eps) = eps^2 > 0, far below f64
        // resolution of the naive evaluation.
        let eps = f64::EPSILON;
        let a = Expansion::from_f64(1.0 + eps).mul(&Expansion::from_f64(1.0 + eps));
        let b = Expansion::from_f64(1.0).add(&Expansion::from_f64(2.0 * eps));
        let d = a.sub(&b);
        assert_eq!(d.sign(), 1);
        assert_eq!(d.estimate(), eps * eps);
    }

    #[test]
    fn expansion_mul_matches_integer_arithmetic() {
        // Use values representable exactly; compare against i128 products.
        let xs = [3.0, -7.0, 255.0, -1024.0, 1.0e6];
        for &x in &xs {
            for &y in &xs {
                let e = Expansion::from_f64(x).mul(&Expansion::from_f64(y));
                assert_eq!(e.estimate(), x * y);
                assert_eq!(e.sign(), ((x * y) as i128).signum() as i32);
            }
        }
    }

    #[test]
    fn zero_handling() {
        let z = Expansion::zero();
        assert_eq!(z.sign(), 0);
        assert_eq!(z.add(&z).sign(), 0);
        assert_eq!(Expansion::from_f64(0.0).sign(), 0);
        assert_eq!(Expansion::from_f64(2.0).scale(0.0).sign(), 0);
        assert_eq!(Expansion::from_f64(2.0).mul(&z).sign(), 0);
        let a = Expansion::from_f64(5.0);
        assert_eq!(a.sub(&a).sign(), 0);
    }
}
