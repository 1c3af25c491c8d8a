//! `pbs`: closed loop, one thread, one programmable bootstrap at a time on
//! sets I and II interleaved, through `try_programmable_bootstrap_with`
//! with a warm workspace and a non-identity LUT. Serving does no work
//! here; the kernels, blind rotation and key switch do all of it.

use std::time::{Duration, Instant};

use morphling_tfhe::{
    BootstrapWorkspace, ClientKey, Lut, LweCiphertext, ParamSet, ServerKey, TfheError,
};
use rand::Rng;

use crate::counts::PbsCounts;
use crate::layers::{kernels, stage_profile};
use crate::report::Report;
use crate::schedule::stream;
use crate::stats::{median, min_samples_for, percentile, trimmed_mean};
use crate::Ctx;

/// Tail percentile of round latency (a round is one set-I and one
/// set-II bootstrap back to back).
const TAIL_Q: f64 = 0.90;
/// A round meets the latency limit within this time.
const ROUND_LIMIT_MS: f64 = 360.0;
/// Fewest times the whole set-up is repeated to report its median.
const SETUP_REPS: usize = 5;
/// Cheap set-ups repeat until they have taken this long in total (or
/// [`SETUP_REPS_MAX`] times), so their median rests on enough repetitions.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Most times a set-up is repeated.
const SETUP_REPS_MAX: usize = 25;
/// Longest the loop may run on to collect enough rounds for the tail.
const MEASURE_CAP: Duration = Duration::from_secs(120);
/// Distinct encrypted inputs per set, cycled through by the loop.
const INPUTS: usize = 32;
/// Staged-versus-one-call bootstraps timed on the profiled set.
const STAGE_REPS: usize = 12;

/// The non-identity LUT every workload evaluates: `m ↦ m + 1 mod p`.
pub fn lut_fn(p: u64) -> impl Fn(u64) -> u64 {
    move |m| (m + 1) % p
}

/// A client/server key pair for `set`, drawn from `seed`.
pub fn keys(set: ParamSet, seed: u64, label: &str) -> (ClientKey, ServerKey) {
    let mut rng = stream(seed, label);
    let ck = ClientKey::generate(set.params(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    (ck, sk)
}

/// Run `build` repeatedly — at least [`SETUP_REPS`] times, then on until
/// [`SETUP_BUDGET`] or [`SETUP_REPS_MAX`] is reached — keeping the last
/// result and returning the median build time in seconds with the
/// repetition count.
pub fn timed_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() && times.len() < SETUP_REPS_MAX)
    {
        drop(last.take());
        let t = Instant::now();
        let built = build()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    let reps = times.len();
    Ok((last.expect("at least one set-up ran"), median(&times), reps))
}

struct Set {
    ck: ClientKey,
    sk: ServerKey,
    ws: BootstrapWorkspace,
    lut: Lut,
    inputs: Vec<(LweCiphertext, u64)>,
}

impl Set {
    fn new(set: ParamSet, seed: u64, label: &str) -> Self {
        let (ck, sk) = keys(set, seed, label);
        let ws = sk.workspace();
        let p = sk.params();
        let lut = Lut::from_fn(
            p.poly_size,
            p.plaintext_modulus,
            lut_fn(p.plaintext_modulus),
        );
        Self {
            ck,
            sk,
            ws,
            lut,
            inputs: Vec::new(),
        }
    }

    fn encrypt_inputs(&mut self, seed: u64) {
        let mut rng = stream(seed, "pbs-inputs");
        let p = self.sk.params().plaintext_modulus;
        self.inputs = (0..INPUTS)
            .map(|_| {
                let m = rng.gen_range(0..p);
                (self.ck.encrypt(m, &mut rng), m)
            })
            .collect();
    }

    /// One bootstrap of input `i`: its time, and whether it decrypted
    /// right.
    fn bootstrap(&mut self, i: usize) -> (Duration, bool) {
        let (ct, m) = &self.inputs[i % self.inputs.len()];
        let t = Instant::now();
        let out = self
            .sk
            .try_programmable_bootstrap_with(ct, &self.lut, &mut self.ws);
        let took = t.elapsed();
        let p = self.sk.params().plaintext_modulus;
        let ok = matches!(&out, Ok(ct) if self.ck.decrypt(ct) == lut_fn(p)(*m));
        (took, ok)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `pbs` workload.
///
/// # Errors
///
/// A tail percentile the run has too few rounds for, or a bootstrap error
/// in the layer probes.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let ((mut one, mut two), setup_s, reps) = timed_setup(|| {
        Ok((
            Set::new(ParamSet::I, ctx.seed, "keys-set1"),
            Set::new(ParamSet::II, ctx.seed, "keys-set2"),
        ))
    })?;
    report.set_setup(setup_s, reps);
    one.encrypt_inputs(ctx.seed);
    two.encrypt_inputs(ctx.seed);

    let min_rounds = min_samples_for(TAIL_Q);
    let (mut rounds, mut t1, mut t2) = (Vec::new(), Vec::new(), Vec::new());
    let mut bad = 0;
    let start = Instant::now();
    while (start.elapsed() < ctx.seconds || rounds.len() < min_rounds)
        && start.elapsed() < MEASURE_CAP
    {
        let i = rounds.len();
        let (d1, ok1) = one.bootstrap(i);
        let (d2, ok2) = two.bootstrap(i);
        bad += u64::from(!ok1) + u64::from(!ok2);
        t1.push(ms(d1));
        t2.push(ms(d2));
        rounds.push(ms(d1 + d2));
    }
    report.count(2 * rounds.len() as u64, bad);
    report.set_e2e("latency_trimmed_mean_ms", trimmed_mean(&rounds)?);
    let tail = percentile(&rounds, TAIL_Q)?;
    report.set_layer("latency.tail_ms", tail);
    // Bootstraps per second of bootstrapping, over the whole loop.
    report.set_e2e(
        "throughput_per_s",
        2e3 * rounds.len() as f64 / rounds.iter().sum::<f64>(),
    );
    report.set_e2e(
        "slo_share",
        rounds.iter().filter(|&&r| r <= ROUND_LIMIT_MS).count() as f64 / rounds.len() as f64,
    );
    report.notes.push(format!(
        "pbs: {} rounds (set I + set II), median {:.3} ms, p{:.0} {tail:.3} ms, \
         round limit {ROUND_LIMIT_MS} ms",
        rounds.len(),
        percentile(&rounds, 0.5)?,
        TAIL_Q * 100.0
    ));

    if ctx.trace {
        report.set_layer("pbs.set1_p50_ms", percentile(&t1, 0.5)?);
        report.set_layer("pbs.set1_p90_ms", percentile(&t1, 0.9)?);
        report.set_layer("pbs.set2_p50_ms", percentile(&t2, 0.5)?);
        report.set_layer("pbs.set2_p90_ms", percentile(&t2, 0.9)?);
        // The traced loop is the untraced loop; the probes run after it.
        report.set_layer("trace.overhead_share", 0.0);
        let inputs: Vec<LweCiphertext> = two.inputs.iter().map(|(c, _)| c.clone()).collect();
        let check = stage_profile(&two.sk, &inputs, &two.lut, 3).map_err(|e| e.to_string())?;
        report.count(check.runs, check.mismatches);
        pbs_layers(&mut report, &one.sk, &one.inputs, &one.lut, ctx.seed)
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}

/// The bootstrap-internal per-layer metrics at `sk`'s set: kernel times,
/// computed per-PBS counts and bytes, the staged pipeline (each staged
/// output checked bit-for-bit against the one-call path), and the
/// transform share those imply.
///
/// # Errors
///
/// Any bootstrap error.
pub fn pbs_layers(
    report: &mut Report,
    sk: &ServerKey,
    inputs: &[(LweCiphertext, u64)],
    lut: &Lut,
    seed: u64,
) -> Result<(), TfheError> {
    let k = kernels(sk, seed);
    let c = PbsCounts::of(sk.params());
    let cts: Vec<LweCiphertext> = inputs.iter().map(|(c, _)| c.clone()).collect();
    let prof = stage_profile(sk, &cts, lut, STAGE_REPS)?;
    report.count(prof.runs, prof.mismatches);
    let transform_us =
        c.forward as f64 * k.forward_us + c.inverse as f64 * k.inverse_us + c.mac as f64 * k.mac_us;
    let pbs_us = prof.pbs.as_secs_f64() * 1e6;
    let s = &prof.stages;
    for (name, value) in [
        ("transform.fft_forward_us", k.forward_us),
        ("transform.fft_inverse_us", k.inverse_us),
        ("transform.mac_us", k.mac_us),
        ("external_product.cmux_us", k.cmux_us),
        ("transform.fft_forward_calls", c.forward as f64),
        ("transform.fft_inverse_calls", c.inverse as f64),
        ("transform.mac_calls", c.mac as f64),
        ("transform.share", transform_us / pbs_us),
        ("bootstrap.pbs_ms", pbs_us / 1e3),
        (
            "bootstrap.modulus_switch_us",
            s.modulus_switch.as_secs_f64() * 1e6,
        ),
        ("bootstrap.blind_rotate_ms", ms(s.blind_rotate)),
        (
            "bootstrap.sample_extract_us",
            s.sample_extract.as_secs_f64() * 1e6,
        ),
        ("ksk.key_switch_ms", ms(s.key_switch)),
        ("bootstrap.stage_coverage", prof.coverage()),
        ("bytes.bsk_per_pbs", c.bsk_bytes as f64),
        ("bytes.ksk_per_pbs", c.ksk_bytes as f64),
    ] {
        report.set_layer(name, value);
    }
    report.notes.push(format!(
        "layers at set {}: {} staged bootstraps checked bit-identical to the one-call path, \
         {} mismatched",
        sk.params().name,
        prof.runs / 2,
        prof.mismatches
    ));
    Ok(())
}
