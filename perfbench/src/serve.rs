//! Driving the serving stack: a seeded open-loop (or backlog) generator on
//! the calling thread, a collector thread that observes each result the
//! moment it resolves, and the timing wrappers the traced run puts around
//! the backend and the key backend.

use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use morphling_tfhe::{
    BatchRequest, Bootstrapper, KeyBackend, LweCiphertext, MultiTicket, TenantId, TfheError, Ticket,
};

use crate::schedule::Arrival;

/// A submitted request's handle, single- or multi-output.
pub enum Pending {
    /// One LUT, one output.
    One(Ticket),
    /// Several LUTs of one input, one output each.
    Many(MultiTicket),
}

impl Pending {
    fn id(&self) -> u64 {
        match self {
            Pending::One(t) => t.id(),
            Pending::Many(t) => t.id(),
        }
    }

    fn poll(&self) -> Option<Result<Vec<LweCiphertext>, TfheError>> {
        match self {
            Pending::One(t) => t.try_wait().map(|r| r.map(|ct| vec![ct])),
            Pending::Many(t) => t.try_wait(),
        }
    }
}

/// What happened to one scheduled request.
pub struct Outcome {
    /// Index into the phase's schedule.
    pub index: usize,
    /// Dispatcher request id, when admitted.
    pub id: Option<u64>,
    /// When the request was due.
    pub due: Instant,
    /// When the generator actually submitted it.
    pub sent: Instant,
    /// Time spent inside the submit call.
    pub admit: Duration,
    /// When the collector observed the result.
    pub done: Instant,
    /// The outputs, or why there are none.
    pub result: Result<Vec<LweCiphertext>, TfheError>,
}

impl Outcome {
    /// Due time to observed result.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator submitted.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

struct InFlight {
    index: usize,
    due: Instant,
    sent: Instant,
    admit: Duration,
    pending: Pending,
}

/// Submit `arrivals` on their schedule from `start` (sleeping until each
/// is due) through `submit`, while a collector thread polls every
/// outstanding ticket and timestamps each result as it resolves — so a
/// request completed out of order is never charged for waiting behind an
/// earlier one. Returns one outcome per arrival, in schedule order.
pub fn drive<F>(arrivals: &[Arrival], start: Instant, mut submit: F) -> Vec<Outcome>
where
    F: FnMut(usize, &Arrival) -> Result<Pending, TfheError>,
{
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut outcomes = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(rx));
        let mut refused = Vec::new();
        for (index, a) in arrivals.iter().enumerate() {
            let due = start + a.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let submitted = submit(index, a);
            let admit = sent.elapsed();
            match submitted {
                Ok(pending) => tx
                    .send(InFlight {
                        index,
                        due,
                        sent,
                        admit,
                        pending,
                    })
                    .expect("the collector outlives the generator"),
                Err(e) => refused.push(Outcome {
                    index,
                    id: None,
                    due,
                    sent,
                    admit,
                    done: Instant::now(),
                    result: Err(e),
                }),
            }
        }
        drop(tx);
        let mut all = collector.join().expect("collector thread panicked");
        all.append(&mut refused);
        all
    });
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

fn collect(rx: mpsc::Receiver<InFlight>) -> Vec<Outcome> {
    let mut open: Vec<InFlight> = Vec::new();
    let mut done = Vec::new();
    let mut generator_done = false;
    loop {
        loop {
            match rx.try_recv() {
                Ok(f) => open.push(f),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        let mut i = 0;
        while i < open.len() {
            match open[i].pending.poll() {
                Some(result) => {
                    let now = Instant::now();
                    let f = open.swap_remove(i);
                    done.push(Outcome {
                        index: f.index,
                        id: Some(f.pending.id()),
                        due: f.due,
                        sent: f.sent,
                        admit: f.admit,
                        done: now,
                        result,
                    });
                }
                None => i += 1,
            }
        }
        if generator_done && open.is_empty() {
            return done;
        }
        // Never spin: a busy collector would take a core from the stack
        // under test. A pass costs time per outstanding ticket, so a deep
        // backlog is polled less often.
        std::thread::sleep(Duration::from_micros(100 + open.len() as u64));
    }
}

/// What a [`TimedBackend`] has seen: time inside the backend, and the
/// time and clock reads its own bookkeeping added on the serving path.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Time spent inside the wrapped backend.
    pub busy: Duration,
    /// Time the wrapper spent recording, after the backend returned.
    pub bookkeeping: Duration,
    /// Clock reads the wrapper made.
    pub clock_reads: u64,
}

/// A [`Bootstrapper`] that times every backend call it forwards.
pub struct TimedBackend<B> {
    inner: B,
    totals: Mutex<Totals>,
}

impl<B> TimedBackend<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            totals: Mutex::new(Totals::default()),
        }
    }

    /// Totals so far.
    pub fn totals(&self) -> Totals {
        *self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<B: Bootstrapper> Bootstrapper for TimedBackend<B> {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        let start = Instant::now();
        let out = self.inner.try_bootstrap_batch(req);
        let end = Instant::now();
        let mut t = self.totals.lock().unwrap_or_else(PoisonError::into_inner);
        t.busy += end - start;
        t.clock_reads += 3;
        t.bookkeeping += end.elapsed();
        out
    }
}

/// A [`KeyBackend`] that times every blob fetch it forwards.
pub struct TimedKeys<K> {
    inner: K,
    loads: Mutex<Vec<Duration>>,
}

impl<K> TimedKeys<K> {
    /// Wrap `inner`.
    pub fn new(inner: K) -> Self {
        Self {
            inner,
            loads: Mutex::new(Vec::new()),
        }
    }

    /// Fetch durations recorded so far.
    pub fn loads(&self) -> Vec<Duration> {
        self.loads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl<K: KeyBackend> KeyBackend for TimedKeys<K> {
    fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
        let t = Instant::now();
        let blob = self.inner.load(tenant);
        self.loads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(t.elapsed());
        blob
    }
}

/// Median cost of one `Instant::now()` read on this host.
pub fn clock_read_cost() -> Duration {
    let reps = 10_000;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(Instant::now());
    }
    t.elapsed() / reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_math::{Torus32, TorusScalar};
    use morphling_tfhe::{Dispatcher, Lut, ServingConfig};
    use std::sync::Arc;

    /// Echoes its inputs after a fixed delay per batch.
    struct Slow;

    impl Bootstrapper for Slow {
        fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
            std::thread::sleep(Duration::from_millis(40));
            Ok(req.ciphertexts().to_vec())
        }
    }

    #[test]
    fn results_are_timed_when_they_resolve_not_in_submission_order() {
        let cfg = ServingConfig::builder()
            .max_linger(Duration::from_millis(20))
            .build()
            .unwrap();
        let dispatcher = Dispatcher::from_config(&cfg, Slow).unwrap();
        let lut = Arc::new(Lut::from_fn(64, 4, |m| m));
        // Tenants 0, 1, 0: key affinity batches the first and third
        // together, so the third resolves before the second.
        let arrivals: Vec<Arrival> = [0, 1, 0]
            .iter()
            .map(|&tenant| Arrival {
                due: Duration::ZERO,
                tenant,
                fanout: false,
                message: 0,
            })
            .collect();
        let out = drive(&arrivals, Instant::now(), |i, a| {
            let ct = LweCiphertext::trivial(Torus32::encode(i as u64, 4), 8);
            dispatcher
                .submit_for(TenantId::new(a.tenant as u64), ct, Arc::clone(&lut), None)
                .map(Pending::One)
        });
        assert!(out.iter().all(|o| o.result.is_ok()));
        assert!(
            out[2].done < out[1].done,
            "the third result waited on the second"
        );
        assert!(out[1].latency() >= Duration::from_millis(80));
        assert!(out[2].latency() < Duration::from_millis(80));
    }
}
