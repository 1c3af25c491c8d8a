//! The two serving workloads. Both build their stack only through
//! `ServingConfig`, `Dispatcher::from_config` and (for set I)
//! `ServingConfig::build_engine`, submit through `submit`/`submit_for`/
//! `submit_many_for`, and read the stack through `stats()`, `spans()` and
//! `KeyStore::stats()`.
//!
//! Each run has an open-loop phase (seeded Poisson arrivals at a fixed
//! rate, latency timed from each request's due time) and a backlog phase
//! (every request queued at once, drain rate timed).
//!
//! - `serve-set1`: set I through a `BootstrapEngine` of one worker per
//!   core, one tenant. Each request costs a full set-I bootstrap.
//! - `serve-tenants`: six tenants with skewed weights through a
//!   `KeyStoreBootstrapper` whose budget holds three keys, on the toy
//!   `Test` set, a quarter of the requests asking for four LUTs of one
//!   input. Bootstraps are cheap, so admission, batching, key affinity,
//!   key loads and evictions dominate.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use morphling_tfhe::keystore::server_key_bytes;
use morphling_tfhe::{
    deserialize_server_key, serialize_server_key, BootstrapEngine, ClientKey, DispatchSpan,
    Dispatcher, KeyBackend, KeyStore, KeyStoreBootstrapper, KeyStoreStats, Lut, LweCiphertext,
    MemoryBackend, ParamSet, ServerKey, ServingConfig, TenantId,
};
use rand::Rng;

use crate::pbs::{keys, lut_fn, pbs_layers, timed_setup};
use crate::report::Report;
use crate::schedule::{burst, poisson, stream, Arrival, Mix};
use crate::serve::{clock_read_cost, drive, Outcome, Pending, TimedBackend, TimedKeys};
use crate::stats::{median, min_samples_for, percentile, trimmed_mean};
use crate::Ctx;

/// `serve-set1` open-loop arrival rate. The dispatcher runs one batch at a
/// time, so at 10 req/s a set-I bootstrap slowed from 41 to 70 ms by the
/// host (see the README's *Noise*) takes its load from 0.4 to 0.7 and
/// queueing multiplies the slowdown; at 5 req/s it stays below 0.4.
const SET1_RATE: f64 = 5.0;
/// `serve-set1` latency limit for `slo_share`.
const SET1_LIMIT_MS: f64 = 500.0;
/// `serve-set1` tail percentile: the open loop sends at least 100 requests
/// (125 at 35 s), so p90 keeps at least ten beyond it.
const SET1_TAIL_Q: f64 = 0.90;
/// `serve-set1` backlog requests per measured second.
const SET1_BURST_PER_S: usize = 7;

/// `serve-tenants` open-loop arrival rate.
const TENANT_RATE: f64 = 200.0;
/// `serve-tenants` latency limit for `slo_share`.
const TENANT_LIMIT_MS: f64 = 50.0;
/// `serve-tenants` tail percentile.
const TENANT_TAIL_Q: f64 = 0.95;
/// `serve-tenants` backlog requests per measured second: at 35 s, each of
/// the bursts (1960 requests) fits the admission queue of
/// [`TENANT_QUEUE`], so the generator never blocks on admission while the
/// backlog drains.
const TENANT_BURST_PER_S: usize = 280;
/// `serve-tenants` admission queue capacity.
const TENANT_QUEUE: usize = 2048;
/// Relative request weights of the six tenants.
const TENANT_WEIGHTS: [f64; 6] = [8.0, 5.0, 3.0, 2.0, 1.0, 1.0];
/// Keys the key store's budget holds.
const BUDGET_KEYS: u64 = 3;
/// Share of requests that ask for all four LUTs of one input.
const FANOUT_SHARE: f64 = 0.25;

/// Share of the measured time given to the open-loop phase; the backlog
/// phase follows.
const OPEN_SHARE: f64 = 0.7;

/// The four LUTs a fanout request evaluates; single requests use the
/// first (the same non-identity LUT as `pbs`).
fn fanout_fn(j: usize, p: u64) -> impl Fn(u64) -> u64 {
    move |m| match j {
        0 => lut_fn(p)(m),
        1 => (3 * m) % p,
        2 => (m * m + 1) % p,
        _ => p - 1 - m,
    }
}

fn luts(poly_size: usize, p: u64) -> Vec<Arc<Lut>> {
    (0..4)
        .map(|j| Arc::new(Lut::from_fn(poly_size, p, fanout_fn(j, p))))
        .collect()
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One phase's requests: the schedule, the ciphertexts (taken as they are
/// submitted), and afterwards the outcomes and which decrypted right.
struct Phase {
    arrivals: Vec<Arrival>,
    inputs: Vec<Option<LweCiphertext>>,
    outcomes: Vec<Outcome>,
    ok: Vec<bool>,
    start: Instant,
}

impl Phase {
    fn new(arrivals: Vec<Arrival>, clients: &[ClientKey], seed: u64, label: &str) -> Self {
        let mut rng = stream(seed, label);
        let inputs = arrivals
            .iter()
            .map(|a| Some(clients[a.tenant].encrypt(a.message, &mut rng)))
            .collect();
        Self {
            arrivals,
            inputs,
            outcomes: Vec::new(),
            ok: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Submit the whole phase on its schedule and decrypt every output.
    /// Requests go out for their tenant when there are several clients,
    /// tenant-less otherwise.
    fn run(&mut self, dispatcher: &Dispatcher, luts: &[Arc<Lut>], clients: &[ClientKey]) {
        let tenanted = clients.len() > 1;
        self.start = Instant::now();
        let inputs = &mut self.inputs;
        self.outcomes = drive(&self.arrivals, self.start, |i, a| {
            let ct = inputs[i].take().expect("each input is submitted once");
            let tenant = TenantId::new(a.tenant as u64);
            if a.fanout {
                dispatcher
                    .submit_many_for(tenant, ct, luts.to_vec(), None)
                    .map(Pending::Many)
            } else if tenanted {
                dispatcher
                    .submit_for(tenant, ct, Arc::clone(&luts[0]), None)
                    .map(Pending::One)
            } else {
                dispatcher
                    .submit(ct, Arc::clone(&luts[0]), None)
                    .map(Pending::One)
            }
        });
        self.ok = self
            .outcomes
            .iter()
            .map(|o| {
                let a = &self.arrivals[o.index];
                let ck = &clients[a.tenant];
                let p = ck.params().plaintext_modulus;
                let want = if a.fanout { 4 } else { 1 };
                matches!(&o.result, Ok(outs) if outs.len() == want
                    && outs.iter().enumerate().all(|(j, ct)| ck.decrypt(ct) == fanout_fn(j, p)(a.message)))
            })
            .collect();
    }

    fn failed(&self) -> u64 {
        self.ok.iter().filter(|&&ok| !ok).count() as u64
    }

    /// When the last result was observed.
    fn end(&self) -> Instant {
        self.outcomes
            .iter()
            .map(|o| o.done)
            .max()
            .unwrap_or(self.start)
    }

    /// Latencies (ms) of the requests that succeeded.
    fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .zip(&self.ok)
            .filter(|(_, &ok)| ok)
            .map(|(o, _)| ms(o.latency()))
            .collect()
    }

    /// Requests that succeeded.
    fn succeeded(&self) -> usize {
        self.ok.iter().filter(|&&ok| ok).count()
    }

    /// From the phase start to its last result.
    fn wall(&self) -> Duration {
        self.end() - self.start
    }
}

/// Open-loop windows and backlog bursts alternate this many times, so that
/// both sample the whole run.
const CYCLES: usize = 5;

/// A run's phases: `CYCLES` open-loop windows and as many backlog bursts,
/// each drawn from its own seeded stream.
struct Plan {
    open: Vec<Phase>,
    bursts: Vec<Phase>,
}

impl Plan {
    fn new(
        ctx: &Ctx,
        (rate, tail_q, burst_per_s): (f64, f64, usize),
        mix: &Mix<'_>,
        clients: &[ClientKey],
    ) -> Self {
        let open_s = ctx.seconds.as_secs_f64() * OPEN_SHARE;
        let n_open = ((rate * open_s).ceil() as usize).max(min_samples_for(tail_q));
        let per_window = n_open.div_ceil(CYCLES);
        let per_burst = (ctx.seconds.as_secs() as usize * burst_per_s / CYCLES).max(8);
        let phase = |label: String, arrivals| {
            Phase::new(arrivals, clients, ctx.seed, &format!("enc-{label}"))
        };
        Self {
            open: (0..CYCLES)
                .map(|c| {
                    let label = format!("open{c}");
                    phase(
                        label.clone(),
                        poisson(ctx.seed, &label, rate, per_window, mix),
                    )
                })
                .collect(),
            bursts: (0..CYCLES)
                .map(|c| {
                    let label = format!("burst{c}");
                    phase(label.clone(), burst(ctx.seed, &label, per_burst, mix))
                })
                .collect(),
        }
    }

    /// Run the windows and bursts alternately, handing `record` each
    /// phase (and whether it was an open-loop window) with the
    /// `snapshot` taken just before it ran.
    fn run<S>(
        &mut self,
        dispatcher: &Dispatcher,
        luts: &[Arc<Lut>],
        clients: &[ClientKey],
        snapshot: impl Fn() -> S,
        mut record: impl FnMut(bool, &Phase, S),
    ) {
        for (open, burst) in self.open.iter_mut().zip(&mut self.bursts) {
            for (is_open, phase) in [(true, open), (false, burst)] {
                let before = snapshot();
                phase.run(dispatcher, luts, clients);
                record(is_open, phase, before);
            }
        }
    }

    /// Record the end-to-end metrics shared by both serving workloads.
    fn e2e(&self, report: &mut Report, tail_q: f64, limit_ms: f64) -> Result<(), String> {
        let lat: Vec<f64> = self.open.iter().flat_map(Phase::latencies_ms).collect();
        let sent: usize = self.open.iter().map(|p| p.arrivals.len()).sum();
        report.set_e2e("latency_trimmed_mean_ms", trimmed_mean(&lat)?);
        let tail = percentile(&lat, tail_q)?;
        report.set_layer("latency.tail_ms", tail);
        let within = lat.iter().filter(|&&l| l <= limit_ms).count();
        // Failed and refused requests are in the denominator only: they miss.
        report.set_e2e("slo_share", within as f64 / sent as f64);
        let rates: Vec<f64> = self
            .bursts
            .iter()
            .map(|b| b.succeeded() as f64 / b.wall().as_secs_f64())
            .collect();
        // Drain rate over all bursts together.
        let drained: usize = self.bursts.iter().map(Phase::succeeded).sum();
        let draining: Duration = self.bursts.iter().map(Phase::wall).sum();
        report.set_e2e("throughput_per_s", drained as f64 / draining.as_secs_f64());
        for p in self.open.iter().chain(&self.bursts) {
            report.count(p.arrivals.len() as u64, p.failed());
        }
        report.notes.push(format!(
            "open loop: {sent} requests in {CYCLES} windows, median {:.3} ms, \
             p{:.0} {tail:.3} ms, limit {limit_ms} ms; \
             backlog: {CYCLES} bursts of {} draining at {rates:.1?}/s",
            percentile(&lat, 0.5)?,
            tail_q * 100.0,
            self.bursts[0].arrivals.len()
        ));
        Ok(())
    }
}

/// Per-layer serving metrics of the open-loop phase, joined per request
/// from the dispatcher's spans through the ticket ids.
fn dispatch_layers(
    report: &mut Report,
    dispatcher: &Dispatcher,
    open: &[Phase],
    tail_q: f64,
) -> Result<(), String> {
    let spans: HashMap<u64, DispatchSpan> =
        dispatcher.spans().into_iter().map(|s| (s.id, s)).collect();
    let epoch = dispatcher.epoch();
    let mut queued = Vec::new();
    let mut resolve = Vec::new();
    let mut batches: HashMap<u64, Duration> = HashMap::new();
    let mut joined = 0usize;
    let outcomes = || open.iter().flat_map(|p| p.outcomes.iter().zip(&p.ok));
    for (o, &ok) in outcomes() {
        let Some(span) = o.id.and_then(|id| spans.get(&id)) else {
            continue;
        };
        if !ok {
            continue;
        }
        joined += 1;
        queued.push(ms(span.queued));
        let batch_end = epoch + span.exec_start + span.exec;
        resolve.push(o.done.saturating_duration_since(batch_end).as_secs_f64() * 1e6);
        batches.insert(span.batch, span.exec);
    }
    let execs: Vec<f64> = batches.values().map(|&d| ms(d)).collect();
    let admit: Vec<f64> = outcomes()
        .map(|(o, _)| o.admit.as_secs_f64() * 1e6)
        .collect();
    let late: Vec<f64> = outcomes().map(|(o, _)| ms(o.lateness())).collect();
    let stats = dispatcher.stats();
    for (name, value) in [
        ("dispatch.admit_us", percentile(&admit, 0.5)?),
        ("dispatch.queue_wait_p50_ms", percentile(&queued, 0.5)?),
        ("dispatch.queue_wait_tail_ms", percentile(&queued, tail_q)?),
        ("dispatch.exec_ms", median(&execs)),
        ("dispatch.resolve_us", percentile(&resolve, 0.5)?),
        ("dispatch.batch_size", joined as f64 / batches.len() as f64),
        ("dispatch.batches", batches.len() as f64),
        ("dispatch.retries", stats.retries as f64),
        ("dispatch.expired", stats.expired as f64),
        ("dispatch.rejected", stats.rejected as f64),
        ("bench.gen_late_tail_ms", percentile(&late, tail_q)?),
    ] {
        report.set_layer(name, value);
    }
    report.notes.push(format!(
        "spans joined to {joined} of {} open-loop requests",
        admit.len()
    ));
    Ok(())
}

/// Share of the backend's busy time the tracing wrappers added: their
/// measured bookkeeping plus their clock reads (and `extra_reads` made
/// elsewhere) at this host's cost per read.
fn overhead_share<B>(timed: &TimedBackend<B>, extra_reads: u64) -> f64 {
    let t = timed.totals();
    let reads = clock_read_cost().as_secs_f64() * (t.clock_reads + extra_reads) as f64;
    (t.bookkeeping.as_secs_f64() + reads) / t.busy.as_secs_f64()
}

/// Encrypted inputs for the layer probes.
fn probe_inputs(ck: &ClientKey, seed: u64) -> Vec<(LweCiphertext, u64)> {
    let mut rng = stream(seed, "probe-inputs");
    let p = ck.params().plaintext_modulus;
    (0..8)
        .map(|_| {
            let m = rng.gen_range(0..p);
            (ck.encrypt(m, &mut rng), m)
        })
        .collect()
}

struct Set1Stack {
    ck: ClientKey,
    sk: Arc<ServerKey>,
    engine: Arc<BootstrapEngine>,
    timed: Option<Arc<TimedBackend<Arc<BootstrapEngine>>>>,
    dispatcher: Dispatcher,
}

/// The `serve-set1` workload.
///
/// # Errors
///
/// A configuration or engine error, or too few samples for a tail.
pub fn run_set1(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let workers = cores();
    let cfg = ServingConfig::builder()
        .workers(workers)
        .build()
        .map_err(err)?;
    let (stack, setup_s, reps) = timed_setup(|| {
        let (ck, sk) = keys(ParamSet::I, ctx.seed, "keys-set1");
        let sk = Arc::new(sk);
        let engine = Arc::new(cfg.build_engine(Arc::clone(&sk)).map_err(err)?);
        let (dispatcher, timed) = if ctx.trace {
            let timed = Arc::new(TimedBackend::new(Arc::clone(&engine)));
            (
                Dispatcher::from_config(&cfg, Arc::clone(&timed)),
                Some(timed),
            )
        } else {
            (Dispatcher::from_config(&cfg, Arc::clone(&engine)), None)
        };
        Ok(Set1Stack {
            ck,
            sk,
            engine,
            timed,
            dispatcher: dispatcher.map_err(err)?,
        })
    })?;
    report.set_setup(setup_s, reps);

    let params = stack.sk.params();
    let p = params.plaintext_modulus;
    let luts = luts(params.poly_size, p);
    let clients = std::slice::from_ref(&stack.ck);
    let mix = Mix {
        tenant_weights: &[1.0],
        fanout_share: 0.0,
        plaintext_modulus: p,
    };
    let mut warm = Phase::new(
        burst(ctx.seed, "warmup", 2 * workers, &mix),
        clients,
        ctx.seed,
        "enc-warmup",
    );
    let mut plan = Plan::new(
        ctx,
        (SET1_RATE, SET1_TAIL_Q, SET1_BURST_PER_S),
        &mix,
        clients,
    );

    let d = &stack.dispatcher;
    warm.run(d, &luts, clients);
    report.count(warm.arrivals.len() as u64, warm.failed());
    // Engine busy time and wall time, summed over the open-loop windows
    // ([0]) and over the bursts ([1]).
    let mut busy = [[Duration::ZERO; 2]; 2];
    plan.run(
        d,
        &luts,
        clients,
        || stack.engine.stats().busy,
        |is_open, phase, before| {
            let acc = &mut busy[usize::from(!is_open)];
            acc[0] += stack.engine.stats().busy - before;
            acc[1] += phase.wall();
        },
    );
    plan.e2e(&mut report, SET1_TAIL_Q, SET1_LIMIT_MS)?;
    report.notes.push(format!(
        "serve-set1: {workers} engine workers, {SET1_RATE} req/s"
    ));

    if let Some(timed) = &stack.timed {
        let share = |[busy, wall]: [Duration; 2]| {
            busy.as_secs_f64() / (workers as f64 * wall.as_secs_f64())
        };
        report.set_layer("engine.busy_share", share(busy[0]));
        report.set_layer("engine.burst_busy_share", share(busy[1]));
        report.set_layer("engine.retries", stack.engine.stats().retries as f64);
        dispatch_layers(&mut report, d, &plan.open, SET1_TAIL_Q)?;
        report.set_layer("trace.overhead_share", overhead_share(timed, 0));
        let inputs = probe_inputs(&stack.ck, ctx.seed);
        pbs_layers(&mut report, &stack.sk, &inputs, &luts[0], ctx.seed).map_err(err)?;
    }
    Ok(report)
}

struct TenantStack {
    clients: Vec<ClientKey>,
    probe_key: ServerKey,
    blobs: Vec<Vec<u8>>,
    store: Arc<KeyStore>,
    keys: Option<Arc<TimedKeys<MemoryBackend>>>,
    timed: Option<Arc<TimedBackend<KeyStoreBootstrapper>>>,
    dispatcher: Dispatcher,
}

/// The `serve-tenants` workload.
///
/// # Errors
///
/// A configuration error, or too few samples for a tail.
pub fn run_tenants(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (stack, setup_s, reps) = timed_setup(|| {
        let backend = MemoryBackend::new();
        let mut clients = Vec::new();
        let mut blobs = Vec::new();
        let mut key_bytes = 0;
        let mut probe_key = None;
        for t in 0..TENANT_WEIGHTS.len() {
            let (ck, sk) = keys(ParamSet::Test, ctx.seed, &format!("keys-tenant{t}"));
            key_bytes = server_key_bytes(&sk);
            let blob = serialize_server_key(&sk);
            backend.insert(TenantId::new(t as u64), blob.clone());
            blobs.push(blob);
            clients.push(ck);
            probe_key.get_or_insert(sk);
        }
        let cfg = ServingConfig::builder()
            .max_batch_size(8)
            .max_linger(Duration::from_micros(500))
            .queue_capacity(TENANT_QUEUE)
            .key_budget_bytes(BUDGET_KEYS * key_bytes)
            .build()
            .map_err(err)?;
        let budget = cfg.key_budget_bytes.expect("the budget was just set");
        let (source, keys): (Arc<dyn KeyBackend>, _) = if ctx.trace {
            let timed = Arc::new(TimedKeys::new(backend));
            (Arc::clone(&timed) as Arc<dyn KeyBackend>, Some(timed))
        } else {
            (Arc::new(backend), None)
        };
        let store = Arc::new(KeyStore::new(source, budget));
        let serving = KeyStoreBootstrapper::new(Arc::clone(&store));
        let (dispatcher, timed) = if ctx.trace {
            let timed = Arc::new(TimedBackend::new(serving));
            (
                Dispatcher::from_config(&cfg, Arc::clone(&timed)),
                Some(timed),
            )
        } else {
            (Dispatcher::from_config(&cfg, serving), None)
        };
        Ok(TenantStack {
            clients,
            probe_key: probe_key.expect("at least one tenant"),
            blobs,
            store,
            keys,
            timed,
            dispatcher: dispatcher.map_err(err)?,
        })
    })?;
    report.set_setup(setup_s, reps);

    let params = ParamSet::Test.params();
    let p = params.plaintext_modulus;
    let luts = luts(params.poly_size, p);
    let clients = &stack.clients;
    let mix = Mix {
        tenant_weights: &TENANT_WEIGHTS,
        fanout_share: FANOUT_SHARE,
        plaintext_modulus: p,
    };
    let mut warm = Phase::new(
        burst(ctx.seed, "warmup", 4 * TENANT_WEIGHTS.len(), &mix),
        clients,
        ctx.seed,
        "enc-warmup",
    );
    let mut plan = Plan::new(
        ctx,
        (TENANT_RATE, TENANT_TAIL_Q, TENANT_BURST_PER_S),
        &mix,
        clients,
    );

    let d = &stack.dispatcher;
    warm.run(d, &luts, clients);
    report.count(warm.arrivals.len() as u64, warm.failed());
    // Key-store counters summed over the open-loop windows.
    let mut keys = KeyStoreStats::default();
    plan.run(
        d,
        &luts,
        clients,
        || stack.store.stats(),
        |is_open, _, before| {
            if is_open {
                let after = stack.store.stats();
                keys.hits += after.hits - before.hits;
                keys.misses += after.misses - before.misses;
                keys.loads += after.loads - before.loads;
                keys.evictions += after.evictions - before.evictions;
            }
        },
    );
    plan.e2e(&mut report, TENANT_TAIL_Q, TENANT_LIMIT_MS)?;
    report.notes.push(format!(
        "serve-tenants: {} tenants, budget {BUDGET_KEYS} keys, {TENANT_RATE} req/s, \
         {:.0}% fanout to 4 LUTs",
        TENANT_WEIGHTS.len(),
        FANOUT_SHARE * 100.0
    ));

    if let (Some(timed), Some(timed_keys)) = (&stack.timed, &stack.keys) {
        report.set_layer(
            "keystore.hit_ratio",
            keys.hits as f64 / (keys.hits + keys.misses) as f64,
        );
        report.set_layer("keystore.loads", keys.loads as f64);
        report.set_layer("keystore.evictions", keys.evictions as f64);
        let loads: Vec<f64> = timed_keys
            .loads()
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        report.set_layer("keystore.load_us", median(&loads));
        let deser: Vec<f64> = stack
            .blobs
            .iter()
            .map(|b| {
                let t = Instant::now();
                let key = deserialize_server_key(b);
                let took = ms(t.elapsed());
                key.map(|_| took)
            })
            .collect::<Result<_, _>>()
            .map_err(err)?;
        report.set_layer("serialize.deserialize_ms", median(&deser));
        dispatch_layers(&mut report, d, &plan.open, TENANT_TAIL_Q)?;
        report.set_layer(
            "trace.overhead_share",
            overhead_share(timed, 2 * timed_keys.loads().len() as u64),
        );
        let inputs = probe_inputs(&clients[0], ctx.seed);
        pbs_layers(&mut report, &stack.probe_key, &inputs, &luts[0], ctx.seed).map_err(err)?;
    }
    Ok(report)
}
