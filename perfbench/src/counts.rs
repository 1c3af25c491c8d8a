//! Work per programmable bootstrap, computed from the parameters — the
//! operation and byte counts that turn measured per-kernel times into the
//! measured counterpart of the paper's Fig 1 breakdown.

use morphling_tfhe::TfheParams;

/// Bytes of one transform-domain point as this CPU path stores it: a
/// complex number of two `f64`s.
pub const SPECTRUM_POINT_BYTES: u64 = 16;

/// Computed per-bootstrap work for one parameter set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PbsCounts {
    /// Forward transforms of decomposed digit polynomials:
    /// `n · (k+1) · l_b` (each CMUX decomposes `k+1` components into
    /// `l_b` digits).
    pub forward: u64,
    /// Inverse transforms of accumulated products: `n · (k+1)`.
    pub inverse: u64,
    /// Transform-domain multiply-accumulates of one digit spectrum with
    /// one BSK spectrum: `n · (k+1)² · l_b`.
    pub mac: u64,
    /// BSK bytes streamed once per bootstrap in the transform domain.
    pub bsk_bytes: u64,
    /// KSK bytes read once per key switch: `k·N · l_k · (n+1)` words.
    pub ksk_bytes: u64,
}

impl PbsCounts {
    /// Counts for `p`.
    pub fn of(p: &TfheParams) -> Self {
        let n = p.lwe_dim as u64;
        let k1 = p.glwe_dim as u64 + 1;
        let lb = p.bsk_decomp.level() as u64;
        let points = p.poly_size as u64 / 2;
        Self {
            forward: n * k1 * lb,
            inverse: n * k1,
            mac: n * k1 * k1 * lb,
            bsk_bytes: n * (k1 * lb) * k1 * points * SPECTRUM_POINT_BYTES,
            ksk_bytes: p.ksk_total_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    #[test]
    fn set_one_counts() {
        // N=1024, n=500, k=1, l_b=2, l_k=3.
        let c = PbsCounts::of(&ParamSet::I.params());
        assert_eq!(c.forward, 2000);
        assert_eq!(c.inverse, 1000);
        assert_eq!(c.mac, 4000);
        assert_eq!(c.bsk_bytes, 500 * 4 * 2 * 512 * 16);
        assert_eq!(c.ksk_bytes, 1024 * 3 * 501 * 4);
    }

    #[test]
    fn set_two_counts() {
        // N=1024, n=630, k=1, l_b=3, l_k=3.
        let c = PbsCounts::of(&ParamSet::II.params());
        assert_eq!(c.forward, 3780);
        assert_eq!(c.inverse, 1260);
        assert_eq!(c.mac, 7560);
        assert_eq!(c.bsk_bytes, 630 * 6 * 2 * 512 * 16);
        assert_eq!(c.ksk_bytes, 1024 * 3 * 631 * 4);
    }

    #[test]
    fn counts_agree_with_the_params_accounting() {
        for set in [ParamSet::I, ParamSet::II, ParamSet::Test] {
            let p = set.params();
            let c = PbsCounts::of(&p);
            assert_eq!(c.mac, p.polymuls_per_bootstrap());
            // The params record the paper's 8-byte points; this CPU path
            // stores 16-byte `f64` complex points.
            assert_eq!(c.bsk_bytes, 2 * p.bsk_total_bytes_fourier());
            assert_eq!(c.ksk_bytes, p.ksk_total_bytes());
        }
    }
}
