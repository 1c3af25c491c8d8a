//! Seeded load generation: open-loop Poisson arrival schedules and the
//! per-request draws (tenant, fanout, plaintext) that ride on them.
//!
//! Everything here is a pure function of the seed, so one seed always
//! produces the same schedule; the program under test only ever sees the
//! ciphertexts encrypted from these draws.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, relative to the start of its phase.
    pub due: Duration,
    /// Index of the submitting tenant (0 for single-tenant workloads).
    pub tenant: usize,
    /// Whether the request asks for every LUT of the workload at once
    /// (one input, several outputs) instead of one.
    pub fanout: bool,
    /// The plaintext the request's ciphertext encrypts.
    pub message: u64,
}

/// What to draw for each request of a phase.
#[derive(Clone, Debug)]
pub struct Mix<'a> {
    /// Relative tenant weights (need not sum to 1).
    pub tenant_weights: &'a [f64],
    /// Share of requests that fan out to several LUTs.
    pub fanout_share: f64,
    /// Plaintext modulus messages are drawn below.
    pub plaintext_modulus: u64,
}

/// Independent random streams derived from one seed, so that changing
/// how many draws one stream makes never shifts another.
pub fn stream(seed: u64, name: &str) -> StdRng {
    // FNV-1a over the stream name, folded into the seed.
    let tag = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ tag)
}

fn draw_tenant(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// `count` requests arriving open-loop at `rate_per_s` with exponential
/// gaps, with tenant/fanout/message drawn per `mix`, from the streams
/// named after `label`.
///
/// The gaps are stratified: gap `i` is drawn from the `i`-th of `count`
/// equal-probability slices of the exponential distribution, and the
/// gaps are then shuffled. Each gap is still exponential with mean
/// `1 / rate_per_s` and their order is random, but every seed sees the
/// same spread of short and long gaps, so runs differ less by luck of the
/// draw.
pub fn poisson(
    seed: u64,
    label: &str,
    rate_per_s: f64,
    count: usize,
    mix: &Mix<'_>,
) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = stream(seed, &format!("{label}-gaps"));
    let mut gaps: Vec<f64> = (0..count)
        .map(|i| {
            // Inverse CDF of Exp(rate) at a point of slice i; 1 - u > 0.
            let u = (i as f64 + rng.gen::<f64>()) / count as f64;
            -(1.0 - u).ln() / rate_per_s
        })
        .collect();
    for i in (1..gaps.len()).rev() {
        gaps.swap(i, rng.gen_range(0..=i));
    }
    let mut at = 0.0_f64;
    let mut out = draws(seed, label, count, mix);
    for (a, gap) in out.iter_mut().zip(gaps) {
        at += gap;
        a.due = Duration::from_secs_f64(at);
    }
    out
}

/// `count` requests all due at once (a backlog), drawn per `mix` from the
/// stream named `label`.
pub fn burst(seed: u64, label: &str, count: usize, mix: &Mix<'_>) -> Vec<Arrival> {
    draws(seed, label, count, mix)
}

fn draws(seed: u64, name: &str, count: usize, mix: &Mix<'_>) -> Vec<Arrival> {
    let mut rng = stream(seed, name);
    (0..count)
        .map(|_| Arrival {
            due: Duration::ZERO,
            tenant: draw_tenant(&mut rng, mix.tenant_weights),
            fanout: rng.gen::<f64>() < mix.fanout_share,
            message: rng.gen_range(0..mix.plaintext_modulus),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix<'static> = Mix {
        tenant_weights: &[6.0, 4.0, 2.0, 1.0],
        fanout_share: 0.25,
        plaintext_modulus: 4,
    };

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(
            poisson(7, "open", 500.0, 300, &MIX),
            poisson(7, "open", 500.0, 300, &MIX)
        );
        assert_eq!(burst(7, "burst", 300, &MIX), burst(7, "burst", 300, &MIX));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            poisson(7, "open", 500.0, 300, &MIX),
            poisson(8, "open", 500.0, 300, &MIX)
        );
        assert_ne!(burst(7, "burst", 300, &MIX), burst(8, "burst", 300, &MIX));
        // Differently labelled phases use independent streams.
        let p: Vec<_> = poisson(7, "open", 500.0, 300, &MIX)
            .into_iter()
            .map(|a| (a.tenant, a.fanout, a.message))
            .collect();
        let b: Vec<_> = burst(7, "burst", 300, &MIX)
            .into_iter()
            .map(|a| (a.tenant, a.fanout, a.message))
            .collect();
        assert_ne!(p, b);
    }

    #[test]
    fn gaps_are_exponential_at_the_stated_rate() {
        let s = poisson(3, "open", 200.0, 20_000, &MIX);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        let span = s.last().unwrap().due.as_secs_f64();
        let rate = s.len() as f64 / span;
        assert!((rate - 200.0).abs() < 200.0 * 0.01, "measured rate {rate}");
        // Exp(200): P(gap < 5 ms) = 1 - e^-1.
        let mut prev = 0.0;
        let short = s
            .iter()
            .filter(|a| {
                let t = a.due.as_secs_f64();
                let gap = t - prev;
                prev = t;
                gap < 0.005
            })
            .count() as f64
            / s.len() as f64;
        assert!(
            (short - (1.0 - (-1.0f64).exp())).abs() < 0.01,
            "short share {short}"
        );
    }

    #[test]
    fn gap_order_is_shuffled() {
        let s = poisson(3, "open", 200.0, 1000, &MIX);
        let gaps: Vec<f64> = std::iter::once(s[0].due.as_secs_f64())
            .chain(s.windows(2).map(|w| (w[1].due - w[0].due).as_secs_f64()))
            .collect();
        let rising = gaps.windows(2).filter(|w| w[1] > w[0]).count();
        assert!((400..600).contains(&rising), "{rising} rising pairs of 999");
    }

    #[test]
    fn draws_follow_the_mix() {
        let s = burst(5, "burst", 20_000, &MIX);
        let share = |t: usize| s.iter().filter(|a| a.tenant == t).count() as f64 / s.len() as f64;
        for (t, w) in [6.0, 4.0, 2.0, 1.0].iter().enumerate() {
            assert!((share(t) - w / 13.0).abs() < 0.02, "tenant {t}");
        }
        let fan = s.iter().filter(|a| a.fanout).count() as f64 / s.len() as f64;
        assert!((fan - 0.25).abs() < 0.02);
        assert!(s.iter().all(|a| a.message < 4 && a.due.is_zero()));
    }
}
