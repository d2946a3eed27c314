//! The request scheduler: adaptive micro-batching for heavy-traffic
//! identification.
//!
//! # Why a scheduler
//!
//! A single `identify` request pays one full early-abort sweep over the
//! enrolled population, its snapshot load and a shard lock round. The
//! multi-query kernel (`find_first_batch`) resolves concurrent requests
//! in *one* pass and one lock round per shard. At 10⁶ paper rows a lone
//! sweep is bound by how fast one core reads the plane, and a batch of
//! 32 reads it once for all: about half the per-probe cost (DESIGN.md
//! "What batching saves"). The scheduler is the piece that gathers the batch:
//! concurrent callers land in one admission queue, a small pool of
//! workers drains the queue in **micro-batches**, and each batch runs
//! through [`SharedServer::identify_batch`], which hands the whole batch
//! to every shard's single-pass batch kernel.
//!
//! The batch window is the sweep in flight. A free worker takes
//! whatever is queued, up to [`SchedulerConfig::max_batch`], at once:
//!
//! * **quiet server** — a lone request leaves as a batch of one with no
//!   wait, so the scheduler adds only the hand-off to a worker;
//! * **busy server** — requests that arrive while the workers sweep
//!   queue up and leave together as the next batch, so batches grow
//!   with the load and with the sweep's length, which follows the
//!   population size with no tuning. Under sustained load they flush
//!   full, and the per-request scan cost approaches `1/max_batch` of a
//!   solo scan.
//!
//! A non-zero [`SchedulerConfig::max_delay`] holds a batch open instead
//! until it fills or its oldest request has waited that long.
//!
//! # Batching saves sweeps only beyond cache; it always bounds overload
//!
//! What a batch saves is the plane's trips from memory, so it saves
//! only where the plane does not fit in cache (DESIGN.md "What batching
//! saves", bit-sliced walk, paper rows of 64): at 10⁶ rows a lone probe
//! reads 0.75–1.04 ns a row and a batch of 32 0.40–0.68, about half
//! the sweep; at 10⁵ rows, where the whole plane is in cache, batches
//! of 1, 10 and 32 all read 0.45–0.49. So on a small or warm
//! population the scheduler is no throughput dial. What it buys at any
//! size — and why it stays in front of the server — is **overload
//! behaviour**: bounded admission, fail-fast shedding, one queue
//! discipline instead of a thundering herd of callers, and a
//! per-request latency bound under load (`1/max_batch` of a sweep
//! instead of a whole sweep).
//!
//! # One level of parallelism
//!
//! Scheduler workers are plain threads, and they are the only threads
//! a lookup ever runs on: a sweep stays on the worker that called it.
//! The default worker count below is capped at the hardware thread
//! count, because more drainers than cores only time-slice.
//!
//! # Backpressure
//!
//! The admission queue is **bounded** ([`SchedulerConfig::queue_capacity`]).
//! When it is full, [`ScheduledServer::submit`] fails fast with
//! [`ProtocolError::Overloaded`] instead of queueing without bound —
//! under sustained overload the server keeps serving at its capacity
//! and sheds the excess, rather than growing an unbounded backlog whose
//! every entry times out. Draining the queue immediately re-opens
//! admission.
//!
//! # Observability
//!
//! The scheduler exports [`SchedulerMetrics`]: latency, queue-depth and
//! batch-size histograms (lock-free, see [`fe_metrics::telemetry`])
//! plus admission/shed/flush counters — the numbers `fe-benchmark`
//! prints as `protocol.scheduler.*`.

use crate::concurrent::SharedServer;
use crate::messages::IdentChallenge;
use crate::params::SystemParams;
use crate::{lock, ProtocolError};
use fe_core::EpochIndex;
use fe_metrics::telemetry::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables for the identification request scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Flush a batch as soon as this many requests are queued.
    pub max_batch: usize,
    /// Hold a batch open until it fills or its *oldest* request has
    /// waited this long. The default, zero, sets no timer: a free worker
    /// takes whatever is queued at once, and requests that arrive
    /// during a sweep form the next batch. A non-zero window is the
    /// worst-case scheduling latency a quiet server adds.
    pub max_delay: Duration,
    /// Admission bound: requests beyond this many queued are shed with
    /// [`ProtocolError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads draining the queue. `0` (the default) means one
    /// per server shard, capped at the hardware thread count (more
    /// drainers than cores would only time-slice): with `W` workers,
    /// `W` micro-batches execute concurrently, each taking the
    /// per-shard read locks in turn.
    pub workers: usize,
    /// Seed for the workers' challenge RNG (worker `i` derives its own
    /// stream from `rng_seed + i`). The default is drawn from OS
    /// entropy per config — challenge values must not be predictable
    /// across deployments; pin a seed only for reproducible tests and
    /// benches. (On the unscheduled path the *caller* supplies the
    /// RNG; this knob is the scheduler's equivalent.)
    pub rng_seed: u64,
}

/// An unpredictable seed. The vendored `rand` shim has no entropy
/// hook, but std's `RandomState` draws its keys from the OS: hashing
/// nothing under fresh keys is a fresh random word.
fn entropy_seed() -> u64 {
    RandomState::new().hash_one(())
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            max_batch: 32,
            max_delay: Duration::ZERO,
            queue_capacity: 1024,
            workers: 0,
            rng_seed: entropy_seed(),
        }
    }
}

/// Counters and distributions exported by a running scheduler.
///
/// Histograms are lock-free and safe to snapshot while the scheduler
/// serves traffic; see [`fe_metrics::telemetry::Histogram::snapshot`].
#[derive(Debug, Default)]
pub struct SchedulerMetrics {
    /// End-to-end scheduling latency in **microseconds**: admission to
    /// result ready (queue wait + batch window + batch execution).
    pub latency_us: Histogram,
    /// Requests per flushed batch.
    pub batch_size: Histogram,
    /// Queue depth sampled at each admission (after the enqueue).
    pub queue_depth: Histogram,
    admitted: AtomicU64,
    shed: AtomicU64,
    size_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
}

impl SchedulerMetrics {
    /// Requests accepted into the queue.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests refused with [`ProtocolError::Overloaded`].
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Batches flushed because they filled to
    /// [`SchedulerConfig::max_batch`].
    pub fn size_flushes(&self) -> u64 {
        self.size_flushes.load(Ordering::Relaxed)
    }

    /// Batches flushed before filling: at once under a zero
    /// [`SchedulerConfig::max_delay`], by its deadline under a non-zero
    /// one, or by shutdown drain.
    pub fn deadline_flushes(&self) -> u64 {
        self.deadline_flushes.load(Ordering::Relaxed)
    }
}

/// One queued identification request.
#[derive(Debug)]
struct Pending {
    probe: Vec<i64>,
    enqueued: Instant,
    reply: mpsc::Sender<Result<IdentChallenge, ProtocolError>>,
}

/// The admission queue, guarded by one mutex (held only to push/drain —
/// never across a scan).
#[derive(Debug)]
struct Queue {
    items: VecDeque<Pending>,
    shutdown: bool,
}

#[derive(Debug)]
struct Inner {
    queue: Mutex<Queue>,
    /// Signalled on enqueue and on shutdown; workers also time out on
    /// it to honour the batch-window deadline.
    wake: Condvar,
    config: SchedulerConfig,
    metrics: SchedulerMetrics,
}

/// A handle to one in-flight scheduled identification: redeem it with
/// [`IdentifyTicket::wait`]. Submitting and waiting are decoupled so an
/// open-loop caller (or a caller batching its own fan-out) can admit
/// many requests before blocking on any result.
#[derive(Debug)]
pub struct IdentifyTicket {
    rx: mpsc::Receiver<Result<IdentChallenge, ProtocolError>>,
}

impl IdentifyTicket {
    /// Blocks until the micro-batch carrying this request has executed.
    ///
    /// # Errors
    /// Whatever the underlying lookup produced (usually
    /// [`ProtocolError::NoMatch`]); [`ProtocolError::Overloaded`] if the
    /// scheduler shut down before serving this request (it drains its
    /// queue on shutdown, so this is defensive).
    pub fn wait(self) -> Result<IdentChallenge, ProtocolError> {
        self.rx.recv().unwrap_or(Err(ProtocolError::Overloaded))
    }
}

/// A [`SharedServer`] behind an adaptive micro-batching admission queue
/// (see the [module docs](self) for the design).
///
/// Identification goes through the scheduler
/// ([`ScheduledServer::identify`] / [`ScheduledServer::submit`]);
/// everything else — enrollment, revocation, phase-2 verification,
/// session cancellation, reset, the claimed and local checks — goes to
/// the wrapped server directly via [`ScheduledServer::server`], on the
/// caller's thread and outside admission. Four of those sweep the
/// index: [`SharedServer::reset`] and [`SharedServer::enroll_unique`]
/// every shard, [`SharedServer::authenticate_claimed`] and
/// [`SharedServer::check_local_uniqueness`] a masked subset. Nothing
/// queues or sheds them; a caller runs one at a time.
///
/// Dropping the scheduler shuts it down cleanly: workers drain the
/// queue (every admitted request still gets its result) and exit.
///
/// ```rust
/// use fe_protocol::scheduler::{ScheduledServer, SchedulerConfig};
/// use fe_protocol::{BiometricDevice, SystemParams};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), fe_protocol::ProtocolError> {
/// let params = SystemParams::insecure_test_defaults();
/// let device = BiometricDevice::new(params.clone());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
///
/// let scheduler = ScheduledServer::scan(params.clone(), 2, SchedulerConfig::default());
/// let bio = params.sketch().line().random_vector(16, &mut rng);
/// scheduler.server().enroll(device.enroll("alice", &bio, &mut rng)?)?;
///
/// let probe = device.probe_sketch(&bio, &mut rng)?;
/// let challenge = scheduler.identify(probe)?; // coalesced with concurrent callers
/// let response = device.respond(&bio, &challenge, &mut rng)?;
/// let outcome = scheduler.server().finish_identification(&response)?;
/// assert_eq!(outcome.identity(), Some("alice"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ScheduledServer {
    server: SharedServer<EpochIndex>,
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ScheduledServer {
    /// A scheduled server over `shards` epoch-index shards — the common
    /// configuration ([`SharedServer::with_shards`] +
    /// [`ScheduledServer::new`]).
    ///
    /// # Panics
    /// Panics if `shards == 0` or the config is degenerate (see
    /// [`ScheduledServer::new`]).
    pub fn scan(params: SystemParams, shards: usize, config: SchedulerConfig) -> Self {
        ScheduledServer::new(SharedServer::with_shards(params, shards), config)
    }

    /// Wraps an existing server (in-memory or durable) in a scheduler
    /// and starts its worker pool.
    ///
    /// # Panics
    /// Panics if `config.max_batch == 0` or
    /// `config.queue_capacity == 0`.
    pub fn new(server: SharedServer<EpochIndex>, config: SchedulerConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            config.queue_capacity >= 1,
            "queue_capacity must be at least 1"
        );
        let workers = if config.workers == 0 {
            let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            server.num_shards().clamp(1, hw)
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                items: VecDeque::with_capacity(config.queue_capacity.min(4096)),
                shutdown: false,
            }),
            wake: Condvar::new(),
            config,
            metrics: SchedulerMetrics::default(),
        });
        let handles = (0..workers)
            .map(|w| {
                let server = server.clone();
                let inner = Arc::clone(&inner);
                let seed = inner.config.rng_seed.wrapping_add(w as u64);
                std::thread::Builder::new()
                    .name(format!("fe-sched-{w}"))
                    .spawn(move || worker_loop(server, inner, seed))
                    .expect("spawn scheduler worker")
            })
            .collect();
        ScheduledServer {
            server,
            inner,
            workers: handles,
        }
    }

    /// The wrapped server: enrollment, revocation, phase-2
    /// (`finish_identification`), cancellation and diagnostics all go
    /// here — only phase-1 identification is scheduled.
    pub fn server(&self) -> &SharedServer<EpochIndex> {
        &self.server
    }

    /// The scheduler's exported metrics.
    pub fn metrics(&self) -> &SchedulerMetrics {
        &self.inner.metrics
    }

    /// Admits one identification request without blocking on its
    /// result; redeem the returned ticket with [`IdentifyTicket::wait`].
    ///
    /// # Errors
    /// [`ProtocolError::Overloaded`] when the admission queue is full
    /// (fail-fast backpressure — the caller should back off and retry).
    pub fn submit(&self, probe: Vec<i64>) -> Result<IdentifyTicket, ProtocolError> {
        let (tx, rx) = mpsc::channel();
        let depth = {
            let mut q = lock(&self.inner.queue);
            if q.items.len() >= self.inner.config.queue_capacity {
                self.inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ProtocolError::Overloaded);
            }
            q.items.push_back(Pending {
                probe,
                enqueued: Instant::now(),
                reply: tx,
            });
            q.items.len()
        };
        self.inner.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.queue_depth.observe(depth as u64);
        self.inner.wake.notify_one();
        Ok(IdentifyTicket { rx })
    }

    /// Scheduled identification phase 1: enqueue the probe, wait for
    /// its micro-batch, return the challenge. Equivalent to
    /// [`SharedServer::begin_identification`] in outcome (same match
    /// semantics — the equivalence is property-tested in
    /// `tests/scheduler.rs`), but concurrent callers share index scans.
    ///
    /// # Errors
    /// [`ProtocolError::NoMatch`] when no record matches;
    /// [`ProtocolError::Overloaded`] when the queue is full.
    pub fn identify(&self, probe: Vec<i64>) -> Result<IdentChallenge, ProtocolError> {
        self.submit(probe)?.wait()
    }

    /// Schedules a caller-side batch: all probes are admitted before
    /// any result is awaited (so one caller cannot deadlock itself),
    /// then resolved in admission order. Results are position-aligned
    /// with `probes`; probes refused at admission report
    /// [`ProtocolError::Overloaded`] in their slot.
    pub fn identify_batch(
        &self,
        probes: &[Vec<i64>],
    ) -> Vec<Result<IdentChallenge, ProtocolError>> {
        let tickets: Vec<Result<IdentifyTicket, ProtocolError>> =
            probes.iter().map(|p| self.submit(p.clone())).collect();
        tickets
            .into_iter()
            .map(|ticket| ticket.and_then(IdentifyTicket::wait))
            .collect()
    }
}

impl Drop for ScheduledServer {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked already reported via the test
            // harness / stderr; don't double-panic the destructor.
            let _ = handle.join();
        }
    }
}

/// One worker: wait for work, hold a non-zero batch window open until
/// the batch fills or the oldest request's deadline passes, drain up to
/// `max_batch`, execute through the server's batch path, deliver.
fn worker_loop(server: SharedServer<EpochIndex>, inner: Arc<Inner>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = &inner.config;
    'serve: loop {
        let mut batch: Vec<Pending> = {
            let mut q = lock(&inner.queue);
            // Wait for the queue to become non-empty (or shutdown with
            // nothing left to drain).
            loop {
                if !q.items.is_empty() {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = inner.wake.wait(q).unwrap_or_else(|p| p.into_inner());
            }
            // Batch window: the oldest queued request anchors the
            // deadline, so scheduling latency is bounded per request,
            // not reset by late arrivals. A zero window has passed
            // already, so the loop below exits at once.
            let deadline = q.items.front().expect("non-empty").enqueued + cfg.max_delay;
            while q.items.len() < cfg.max_batch && !q.shutdown {
                let now = Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (guard, _timeout) = inner
                    .wake
                    .wait_timeout(q, remaining)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
                if q.items.is_empty() {
                    // Another worker drained the queue while we slept;
                    // go back to waiting for fresh work.
                    continue 'serve;
                }
            }
            let take = q.items.len().min(cfg.max_batch);
            q.items.drain(..take).collect()
        };
        if batch.len() >= cfg.max_batch {
            inner.metrics.size_flushes.fetch_add(1, Ordering::Relaxed);
        } else {
            inner
                .metrics
                .deadline_flushes
                .fetch_add(1, Ordering::Relaxed);
        }
        inner.metrics.batch_size.observe(batch.len() as u64);

        // Execute outside the queue lock: admission stays open while
        // the batch scans. One identify_batch call = one pass over each
        // shard's arena for the whole micro-batch.
        let probes: Vec<Vec<i64>> = batch
            .iter_mut()
            .map(|p| std::mem::take(&mut p.probe))
            .collect();
        let results = server.identify_batch(&probes, &mut rng);
        let done = Instant::now();
        for (pending, result) in batch.into_iter().zip(results) {
            let waited = done.saturating_duration_since(pending.enqueued);
            inner.metrics.latency_us.observe(waited.as_micros() as u64);
            // A caller that gave up (dropped its ticket) is not an
            // error. Nothing expires the challenge it abandoned: it stays
            // in its shard's `pending` map until it is answered or
            // cancelled (`cancel_session`), or, once its record is
            // revoked, until the shard's next checkpoint compacts it
            // away, exactly as with the unscheduled path.
            let _ = pending.reply.send(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BiometricDevice;

    fn population(
        scheduler: &ScheduledServer,
        users: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> (BiometricDevice, Vec<Vec<i64>>) {
        let params = scheduler.server().params().clone();
        let device = BiometricDevice::new(params.clone());
        let mut bios = Vec::new();
        for u in 0..users {
            let bio = params.sketch().line().random_vector(dim, rng);
            scheduler
                .server()
                .enroll(device.enroll(&format!("user-{u}"), &bio, rng).unwrap())
                .unwrap();
            bios.push(bio);
        }
        (device, bios)
    }

    #[test]
    fn lone_request_flushes_within_the_window() {
        let params = SystemParams::insecure_test_defaults();
        let scheduler = ScheduledServer::scan(
            params,
            1,
            SchedulerConfig {
                max_batch: 64,
                max_delay: Duration::from_millis(5),
                ..SchedulerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(100);
        let (device, bios) = population(&scheduler, 1, 16, &mut rng);
        let reading: Vec<i64> = bios[0].iter().map(|&x| x + 10).collect();
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        // The batch can never fill (one caller, max_batch 64): only the
        // deadline can flush it.
        let chal = scheduler.identify(probe).unwrap();
        let resp = device.respond(&reading, &chal, &mut rng).unwrap();
        assert!(scheduler
            .server()
            .finish_identification(&resp)
            .unwrap()
            .is_identified());
        assert_eq!(scheduler.metrics().deadline_flushes(), 1);
        assert_eq!(scheduler.metrics().size_flushes(), 0);
        assert_eq!(scheduler.metrics().batch_size.snapshot().max, 1);
    }

    #[test]
    fn full_batch_flushes_on_size() {
        let params = SystemParams::insecure_test_defaults();
        let scheduler = ScheduledServer::scan(
            params,
            1,
            SchedulerConfig {
                max_batch: 4,
                // A deadline long enough that only the size trigger can
                // flush the first batch.
                max_delay: Duration::from_secs(30),
                workers: 1,
                ..SchedulerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(101);
        let (device, bios) = population(&scheduler, 4, 16, &mut rng);
        let tickets: Vec<IdentifyTicket> = bios
            .iter()
            .map(|bio| {
                let reading: Vec<i64> = bio.iter().map(|&x| x - 12).collect();
                let probe = device.probe_sketch(&reading, &mut rng).unwrap();
                scheduler.submit(probe).unwrap()
            })
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        assert_eq!(scheduler.metrics().size_flushes(), 1);
        assert_eq!(scheduler.metrics().batch_size.snapshot().max, 4);
        assert_eq!(scheduler.metrics().admitted(), 4);
    }

    #[test]
    fn no_match_and_match_coexist_in_one_batch() {
        let params = SystemParams::insecure_test_defaults();
        let scheduler = ScheduledServer::scan(
            params.clone(),
            2,
            SchedulerConfig {
                max_batch: 4,
                // Only the size trigger can flush: all four probes
                // leave in one batch.
                max_delay: Duration::from_secs(30),
                ..SchedulerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(102);
        let (device, bios) = population(&scheduler, 3, 16, &mut rng);
        let mut probes = Vec::new();
        for bio in &bios {
            let reading: Vec<i64> = bio.iter().map(|&x| x + 25).collect();
            probes.push(device.probe_sketch(&reading, &mut rng).unwrap());
        }
        let stranger = params.sketch().line().random_vector(16, &mut rng);
        probes.push(device.probe_sketch(&stranger, &mut rng).unwrap());
        let results = scheduler.identify_batch(&probes);
        assert_eq!(results.len(), 4);
        for r in &results[..3] {
            assert!(r.is_ok());
        }
        assert_eq!(results[3], Err(ProtocolError::NoMatch));
        assert_eq!(scheduler.metrics().size_flushes(), 1);
        assert_eq!(scheduler.metrics().batch_size.snapshot().max, 4);
    }

    #[test]
    fn default_seeds_differ() {
        let seeds = [(); 2].map(|()| SchedulerConfig::default().rng_seed);
        assert_ne!(seeds[0], seeds[1]);
    }

    #[test]
    fn a_lone_request_waits_for_no_window_by_default() {
        let params = SystemParams::insecure_test_defaults();
        let zero = ScheduledServer::scan(params.clone(), 1, SchedulerConfig::default());
        let windowed = ScheduledServer::scan(
            params.clone(),
            1,
            SchedulerConfig {
                max_delay: Duration::from_millis(2),
                ..SchedulerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(104);
        let device = BiometricDevice::new(params.clone());
        let stranger = params.sketch().line().random_vector(16, &mut rng);
        let probe = device.probe_sketch(&stranger, &mut rng).unwrap();
        // Alternate, so both sides see the same phases of a loaded host.
        for i in 0..20 {
            let scheduler = if i % 2 == 0 { &zero } else { &windowed };
            assert_eq!(
                scheduler.identify(probe.clone()),
                Err(ProtocolError::NoMatch)
            );
        }
        let p50 = |s: &ScheduledServer| s.metrics().latency_us.snapshot().p50 as f64;
        // A ratio within one run: the only kind of timing assert that
        // holds on a host whose speed drifts.
        let ratio = p50(&zero) / p50(&windowed);
        assert!(
            ratio < 0.25,
            "zero window p50 {} µs vs 2 ms window p50 {} µs",
            p50(&zero),
            p50(&windowed)
        );
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let params = SystemParams::insecure_test_defaults();
        let scheduler = ScheduledServer::scan(
            params,
            1,
            SchedulerConfig {
                max_batch: 16,
                // Longer than the test: only shutdown can flush.
                max_delay: Duration::from_secs(30),
                workers: 1,
                ..SchedulerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(103);
        let (device, bios) = population(&scheduler, 2, 16, &mut rng);
        let reading: Vec<i64> = bios[1].iter().map(|&x| x + 5).collect();
        let probe = device.probe_sketch(&reading, &mut rng).unwrap();
        let ticket = scheduler.submit(probe).unwrap();
        drop(scheduler); // shutdown drains the queue before workers exit
        assert!(ticket.wait().is_ok());
    }
}
