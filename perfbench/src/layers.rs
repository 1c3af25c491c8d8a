//! Outside-in timings of the bootstrap's layers: the transform kernels and
//! one CMUX at a key's shape, and a staged programmable bootstrap built
//! from the public stage functions whose output must be bit-identical to
//! the one-call `ServerKey` path.

use std::hint::black_box;
use std::time::{Duration, Instant};

use morphling_math::Polynomial;
use morphling_tfhe::{
    blind_rotate_assign, modulus_switch, sample_extract, BootstrapWorkspace, ExternalProductEngine,
    GlweCiphertext, Lut, LweCiphertext, ServerKey, TfheError,
};
use morphling_transform::{BatchScratch, PolyBatch, Spectrum, SpectrumBatch};
use rand::Rng;

use crate::schedule::stream;
use crate::stats::median;

/// Time of one kernel call, per polynomial (or per product for the MAC).
#[derive(Clone, Copy, Debug)]
pub struct KernelTimes {
    /// Forward transform of one digit polynomial, run the way the
    /// bootstrap runs it (paired, batched over a CMUX's digit rows when
    /// the key batches transforms).
    pub forward_us: f64,
    /// Inverse transform of one accumulated product (paired).
    pub inverse_us: f64,
    /// One transform-domain multiply-accumulate (`Spectrum::mul_acc`).
    pub mac_us: f64,
    /// One blind-rotation step (`rotate_cmux_into`).
    pub cmux_us: f64,
}

/// The transform engine a key's bootstrap uses, rebuilt from its public
/// configuration.
pub fn engine_of(sk: &ServerKey) -> ExternalProductEngine {
    ExternalProductEngine::new(sk.params())
        .with_merge_split(sk.merge_split())
        .with_batched_transforms(sk.batched_transforms())
}

/// Rounds over the kernels: every round times one block of calls of each
/// kernel, so each kernel's samples spread over the whole probe.
const ROUNDS: usize = 40;
/// Target length of one block of calls.
const BLOCK: Duration = Duration::from_millis(2);

/// Median per-call time in microseconds of each kernel in `kernels`,
/// sampled in interleaved blocks.
fn per_call_us(kernels: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let reps: Vec<usize> = kernels
        .iter_mut()
        .map(|f| {
            f();
            let t = Instant::now();
            f();
            let one = t.elapsed().as_secs_f64().max(1e-8);
            ((BLOCK.as_secs_f64() / one).ceil() as usize).max(1)
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(ROUNDS); kernels.len()];
    for _ in 0..ROUNDS {
        for ((f, &reps), out) in kernels.iter_mut().zip(&reps).zip(&mut samples) {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            out.push(t.elapsed().as_secs_f64() * 1e6 / reps as f64);
        }
    }
    samples.iter().map(|s| median(s)).collect()
}

/// Time the kernels at `sk`'s shape on seeded inputs.
pub fn kernels(sk: &ServerKey, seed: u64) -> KernelTimes {
    let p = sk.params();
    let n = p.poly_size;
    let rows = (p.glwe_dim + 1) * p.bsk_decomp.level();
    let half_base = 1_i64 << (p.bsk_decomp.base_log() - 1);
    let mut rng = stream(seed, "kernels");
    let digits: Vec<Polynomial<i64>> = (0..rows)
        .map(|_| Polynomial::from_fn(n, |_| rng.gen_range(-half_base..half_base)))
        .collect();
    let engine = engine_of(sk);
    let fft = engine.fft();
    let spectra: Vec<Spectrum> = digits.iter().map(|d| fft.forward_int(d)).collect();

    // Forward: as the bootstrap runs it — over a CMUX's digit rows at once
    // when the key batches transforms, else one pair (or one polynomial).
    let (batched, paired) = (sk.batched_transforms(), sk.merge_split());
    let forward_polys = match (batched, paired) {
        (true, _) => rows as f64,
        (false, true) => 2.0,
        (false, false) => 1.0,
    };
    let batch = PolyBatch::from_polys(&digits);
    let mut batch_out = SpectrumBatch::zero(n, rows);
    let mut batch_scratch = BatchScratch::new();
    let mut fwd_out = vec![Spectrum::zero(n); 2];
    let mut fwd_scratch = Vec::new();
    let mut forward = || {
        if batched && paired {
            fft.forward_pair_int_batch_into(&batch, &mut batch_out, &mut batch_scratch);
        } else if batched {
            fft.forward_int_batch_into(&batch, &mut batch_out);
        } else if paired {
            let (a, b) = fwd_out.split_at_mut(1);
            fft.forward_pair_int_into(
                &digits[0],
                &digits[1],
                &mut a[0],
                &mut b[0],
                &mut fwd_scratch,
            );
        } else {
            fft.forward_int_into(&digits[0], &mut fwd_out[0]);
        }
        black_box((&batch_out, &fwd_out));
    };

    let inverse_polys = if paired { 2.0 } else { 1.0 };
    let mut inv_out = vec![Polynomial::zero(n); 2];
    let mut inv_scratch = Vec::new();
    let mut inverse = || {
        let (o0, o1) = inv_out.split_at_mut(1);
        if paired {
            fft.inverse_pair_torus_into(
                &spectra[0],
                &spectra[1],
                &mut o0[0],
                &mut o1[0],
                &mut inv_scratch,
            );
        } else {
            fft.inverse_torus_into(&spectra[0], &mut o0[0], &mut inv_scratch);
        }
        black_box(&inv_out);
    };

    let mut acc = Spectrum::zero(n);
    let mut mac = || {
        acc.mul_acc(black_box(&spectra[0]), black_box(&spectra[1]));
    };

    let mut ws = sk.workspace();
    let lut = Lut::from_fn(n, p.plaintext_modulus, |m| m);
    let mut glwe = GlweCiphertext::trivial(lut.polynomial().clone(), p.glwe_dim);
    let bsk = sk.bootstrap_key();
    let two_n = p.two_n() as i64;
    let mut i = 0;
    let mut cmux = || {
        i = (i + 1) % bsk.lwe_dim();
        let a_tilde = 1 + (i as i64 * 7919) % (two_n - 1);
        engine.rotate_cmux_into(bsk.fourier(i), &mut glwe, a_tilde, &mut ws);
        black_box(&glwe);
    };

    let t = per_call_us(&mut [&mut forward, &mut inverse, &mut mac, &mut cmux]);
    KernelTimes {
        forward_us: t[0] / forward_polys,
        inverse_us: t[1] / inverse_polys,
        mac_us: t[2],
        cmux_us: t[3],
    }
}

/// One bootstrap's stage times.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    /// Modulus switch of the input to exponents mod `2N`.
    pub modulus_switch: Duration,
    /// Initial accumulator rotation plus the `n` CMUX steps.
    pub blind_rotate: Duration,
    /// Sample extraction of coefficient 0.
    pub sample_extract: Duration,
    /// Key switch back to the small LWE key.
    pub key_switch: Duration,
}

/// A programmable bootstrap assembled from the public stage functions,
/// timing each stage.
///
/// # Errors
///
/// The key switch's dimension error, as the one-call path reports it.
pub fn staged_pbs(
    sk: &ServerKey,
    engine: &ExternalProductEngine,
    ct: &LweCiphertext,
    lut: &Lut,
    ws: &mut BootstrapWorkspace,
) -> Result<(LweCiphertext, Stages), TfheError> {
    let p = sk.params();
    let t0 = Instant::now();
    let (mask, b_tilde) = modulus_switch(ct, p.two_n());
    let t1 = Instant::now();
    let mut acc = GlweCiphertext::trivial(lut.polynomial().clone(), p.glwe_dim)
        .monomial_mul(-(b_tilde as i64));
    blind_rotate_assign(engine, sk.bootstrap_key(), &mut acc, &mask, ws);
    let t2 = Instant::now();
    let extracted = sample_extract(&acc);
    let t3 = Instant::now();
    let out = sk.key_switch_key().try_key_switch(&extracted)?;
    let t4 = Instant::now();
    Ok((
        out,
        Stages {
            modulus_switch: t1 - t0,
            blind_rotate: t2 - t1,
            sample_extract: t3 - t2,
            key_switch: t4 - t3,
        },
    ))
}

/// Medians of the staged pipeline next to the one-call bootstrap.
#[derive(Clone, Copy, Debug)]
pub struct StageProfile {
    /// One-call `try_programmable_bootstrap_with` time.
    pub pbs: Duration,
    /// Per-stage medians of the staged pipeline.
    pub stages: Stages,
    /// Staged bootstraps whose output differed from the one-call path.
    pub mismatches: u64,
    /// Bootstraps run (both paths).
    pub runs: u64,
}

impl StageProfile {
    /// Sum of the stage medians over the one-call median; ≈ 1 when the
    /// stages cover the whole bootstrap.
    pub fn coverage(&self) -> f64 {
        let s = &self.stages;
        (s.modulus_switch + s.blind_rotate + s.sample_extract + s.key_switch).as_secs_f64()
            / self.pbs.as_secs_f64()
    }
}

/// Run `reps` staged and one-call bootstraps alternately over `inputs`,
/// checking every staged output bit-for-bit against the one-call output.
///
/// # Errors
///
/// Any bootstrap error of either path.
pub fn stage_profile(
    sk: &ServerKey,
    inputs: &[LweCiphertext],
    lut: &Lut,
    reps: usize,
) -> Result<StageProfile, TfheError> {
    let engine = engine_of(sk);
    let mut ws = sk.workspace();
    let mut direct = Vec::with_capacity(reps);
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut mismatches = 0;
    for r in 0..reps {
        let ct = &inputs[r % inputs.len()];
        let t = Instant::now();
        let want = sk.try_programmable_bootstrap_with(ct, lut, &mut ws)?;
        direct.push(t.elapsed().as_secs_f64());
        let (got, s) = staged_pbs(sk, &engine, ct, lut, &mut ws)?;
        if got != want {
            mismatches += 1;
        }
        for (v, d) in stages.iter_mut().zip([
            s.modulus_switch,
            s.blind_rotate,
            s.sample_extract,
            s.key_switch,
        ]) {
            v.push(d.as_secs_f64());
        }
    }
    let med = |v: &[f64]| Duration::from_secs_f64(median(v));
    Ok(StageProfile {
        pbs: med(&direct),
        stages: Stages {
            modulus_switch: med(&stages[0]),
            blind_rotate: med(&stages[1]),
            sample_extract: med(&stages[2]),
            key_switch: med(&stages[3]),
        },
        mismatches,
        runs: 2 * reps as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    #[test]
    fn staged_pipeline_is_bit_identical_to_the_one_call_path() {
        let (ck, sk) = crate::pbs::keys(ParamSet::Test, 5, "keys-test");
        let mut rng = stream(5, "inputs");
        let inputs: Vec<LweCiphertext> = (0..4).map(|m| ck.encrypt(m, &mut rng)).collect();
        let lut = Lut::from_fn(sk.params().poly_size, 4, |m| (m + 1) % 4);
        let prof = stage_profile(&sk, &inputs, &lut, 8).unwrap();
        assert_eq!(prof.mismatches, 0);
        assert_eq!(prof.runs, 16);
        assert!(prof.coverage() > 0.0);
    }

    #[test]
    fn kernel_times_are_positive() {
        let (_, sk) = crate::pbs::keys(ParamSet::Test, 5, "keys-test");
        let k = kernels(&sk, 5);
        for t in [k.forward_us, k.inverse_us, k.mac_us, k.cmux_us] {
            assert!(t > 0.0 && t.is_finite());
        }
    }
}
