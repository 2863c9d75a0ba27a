//! The work-stealing executor: a fixed pool of worker threads cooperatively
//! driving many poll-mode state machines.
//!
//! The previous runtime dedicated one OS thread to every CKS/CKR kernel
//! (4 per rank on a 4-QSFP cluster) plus one per rank program — hundreds of
//! threads at 64+ ranks. Its successor statically sharded the cluster's
//! machines over `workers` threads, which made load imbalance invisible at
//! one worker and pathological at many: a worker that happened to own the
//! hot machines swept its whole shard (mostly idle machines) per hot poll
//! while its siblings spun over nothing.
//!
//! This module replaces the static shards with per-worker *run queues* plus
//! work stealing:
//!
//! * **Run queues** — every worker owns a deque of machines and drains it
//!   in small batches (one lock per [`ExecutorConfig::batch`] machines, so
//!   thieves interleave without a lock per poll).
//! * **Stealing** — a worker whose queue is empty picks a victim at random
//!   (rotating through all workers) and steals half the victim's queue, so
//!   busy state machines migrate to idle execution resources.
//! * **Cold set** — a machine that reports [`Step::Idle`]
//!   [`ExecutorConfig::cold_after`] times in a row is parked in a shared
//!   cold set instead of re-queued, so hot machines are not diluted by
//!   sweeps over quiescent ones. Cold machines are re-offered to any worker
//!   that runs out of work and, at a trickle, to busy workers, so a machine
//!   that wakes up is re-discovered and promoted back to a run queue.
//! * **Parking** — a fully idle worker backs off (spin → yield) and then
//!   parks on a condvar with a progressively doubling timeout
//!   ([`ExecutorConfig::park_min`] → [`ExecutorConfig::park_max`]) instead
//!   of the previous 50 µs sleep loop. Workers that make progress bump a
//!   generation counter and nudge one parked sibling; the timeout is the
//!   backstop for progress generated outside the pool (rank threads of the
//!   blocking plane, socket peers).
//!
//! Per-worker counters (polls, progress, steals, parks) are snapshotted
//! into [`WorkerStats`] and surface in [`crate::RunReport::worker_stats`],
//! so imbalance is observable instead of invisible. This is the software
//! analogue of the paper's spatial multiplexing: many state machines, few
//! physical execution resources — and, like MPI Streams, stream progress is
//! decoupled from any fixed thread placement.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng};

use crate::params::RuntimeParams;
use crate::transport::socket::FabricHealth;
use crate::SmiError;

/// Outcome of one cooperative `poll` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Moved at least one packet / made observable progress.
    Progress,
    /// Nothing to do right now; poll again later.
    Idle,
    /// Permanently finished; the executor drops the machine.
    Done,
}

/// A cooperative state machine the executor can drive. Implementations must
/// never block inside `poll`.
pub(crate) trait Pollable: Send {
    /// Advance as far as possible without blocking.
    fn poll(&mut self) -> Step;
}

/// Outcome of one iteration of a [`block_on_deadline`] poll closure.
pub(crate) enum BlockingStep<T> {
    /// The operation completed with this value.
    Ready(T),
    /// Moved data this iteration; keep polling with a fresh stall deadline.
    Progress,
    /// Nothing to do until the transport accepts or supplies data.
    Pending,
}

/// Drive a non-blocking poll closure on the calling thread until it reports
/// [`BlockingStep::Ready`] — the adapter through which the blocking channel
/// API wrappers spin their poll-mode cores.
///
/// `timeout` bounds the *stall*, not the whole operation (matching the
/// semantics of the previous `recv_timeout`-based blocking paths): every
/// [`BlockingStep::Progress`] resets the stall deadline. The optional
/// `overall` deadline is checked on every iteration *regardless* of
/// progress: a peer trickling one packet per poll can extend the stall
/// bound indefinitely, and the overall deadline converts that case into
/// [`SmiError::DeadlineExceeded`], bounding the call's total elapsed time.
/// The backoff mirrors the executor worker loop — spin briefly, then
/// yield, then nap — so a rank thread spinning here cannot starve the
/// workers that move its packets.
///
/// The optional `health` board makes the stall bound recovery-aware: while
/// a mid-stream socket reconnect is in flight the stall deadline keeps
/// resetting (the op outlives the repair instead of misreporting it as a
/// timeout). Reconnects are budget-bounded, so a failed recovery still
/// surfaces — as the recorded peer death via [`FabricHealth::escalate`].
pub(crate) fn block_on_deadline<T>(
    timeout: Duration,
    overall: Option<Instant>,
    health: Option<&FabricHealth>,
    waiting_for: &'static str,
    mut poll: impl FnMut() -> Result<BlockingStep<T>, SmiError>,
) -> Result<T, SmiError> {
    let mut deadline = Instant::now() + timeout;
    let mut idle = 0u32;
    loop {
        match poll()? {
            BlockingStep::Ready(v) => return Ok(v),
            BlockingStep::Progress => {
                if let Some(d) = overall {
                    if Instant::now() >= d {
                        return Err(SmiError::DeadlineExceeded { waiting_for });
                    }
                }
                deadline = Instant::now() + timeout;
                idle = 0;
            }
            BlockingStep::Pending => {
                let now = Instant::now();
                if let Some(d) = overall {
                    if now >= d {
                        return Err(SmiError::DeadlineExceeded { waiting_for });
                    }
                }
                if now >= deadline {
                    if health.is_some_and(|h| h.any_reconnecting()) {
                        deadline = now + timeout;
                    } else {
                        return Err(SmiError::Timeout { waiting_for });
                    }
                }
                idle += 1;
                if idle < 16 {
                    std::hint::spin_loop();
                } else if idle < 128 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }
}

/// Tuning of the work-stealing pool, derived from
/// [`RuntimeParams`] by [`ExecutorConfig::from_params`].
#[derive(Debug, Clone)]
pub(crate) struct ExecutorConfig {
    /// Enable stealing and the cold set. `false` reproduces the historical
    /// static sharding (machines never leave their initial queue) — kept as
    /// the measurable baseline for `bench_scaling`'s skewed workload.
    pub steal: bool,
    /// Maximum machines drained from a run queue (own or victim's) per lock
    /// acquisition, and polled before the queue lock is released again.
    pub batch: usize,
    /// Consecutive [`Step::Idle`] polls after which a machine is parked in
    /// the shared cold set.
    pub cold_after: u32,
    /// Initial (and minimum) condvar park timeout of a fully idle worker.
    pub park_min: Duration,
    /// Cap of the progressively doubled park timeout.
    pub park_max: Duration,
}

impl ExecutorConfig {
    /// Map the public runtime knobs onto the pool tuning.
    pub fn from_params(p: &RuntimeParams) -> Self {
        ExecutorConfig {
            steal: p.work_stealing,
            batch: p.steal_batch.max(1),
            cold_after: p.cold_idle_threshold.max(1),
            park_min: p.park_timeout_min.max(Duration::from_micros(1)),
            park_max: p.park_timeout_max.max(p.park_timeout_min),
        }
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::from_params(&RuntimeParams::default())
    }
}

/// Per-worker scheduling counters, snapshotted out of the pool and exposed
/// via [`crate::RunReport::worker_stats`] so load (im)balance is observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Machine polls issued by this worker.
    pub polls: u64,
    /// Polls that reported progress.
    pub progress: u64,
    /// Machines this worker stole from siblings' run queues.
    pub steals: u64,
    /// Times this worker parked on the idle condvar.
    pub parks: u64,
}

#[derive(Default)]
struct Counters {
    polls: AtomicU64,
    progress: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            polls: self.polls.load(Ordering::Relaxed),
            progress: self.progress.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

/// A machine plus its scheduling state (how long it has been idle).
struct Machine {
    inner: Box<dyn Pollable>,
    idle_streak: u32,
}

/// State shared by all workers of one pool.
struct Pool {
    /// Per-worker run queues. A worker pops batches from the front of its
    /// own queue and re-queues survivors at the back; thieves split off the
    /// back half of a victim's queue.
    queues: Vec<Mutex<VecDeque<Machine>>>,
    /// Machines idle long enough to be evicted from the run queues; re-
    /// offered to idle workers and, at a trickle, to busy ones.
    cold: Mutex<VecDeque<Machine>>,
    /// Machines not yet [`Step::Done`]; workers exit when it reaches zero.
    live: AtomicUsize,
    /// Progress generation: bumped on every sweep that made progress. A
    /// parking worker snapshots it at sweep start and aborts the park when
    /// it moved — the waker bumps it *before* taking `park_lock`, so the
    /// re-check under the lock can never miss a wake.
    epoch: AtomicU64,
    /// Workers currently waiting on `park_cv` (incremented under
    /// `park_lock`). Wakers skip the lock entirely while it is zero.
    parked: AtomicUsize,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    stop: Arc<AtomicBool>,
    counters: Vec<Counters>,
    cfg: ExecutorConfig,
}

impl Pool {
    fn wake_all(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.park_lock.lock();
            self.park_cv.notify_all();
        }
    }

    fn wake_one(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.park_lock.lock();
            self.park_cv.notify_one();
        }
    }
}

/// Handle to the worker pool; joined at shutdown.
pub(crate) struct ShardedExecutor {
    threads: Vec<JoinHandle<()>>,
    pool: Arc<Pool>,
}

impl ShardedExecutor {
    /// [`ShardedExecutor::spawn_with`] under the default tuning.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn spawn(items: Vec<Box<dyn Pollable>>, workers: usize, stop: Arc<AtomicBool>) -> Self {
        Self::spawn_with(items, workers, stop, ExecutorConfig::default())
    }

    /// Seed `items` round-robin over `workers` run queues and start the
    /// workers.
    ///
    /// Workers run until every machine is `Done` or `stop` is raised (end
    /// of run / panic teardown). The round-robin seeding matches the old
    /// static placement, so a no-steal pool is bit-compatible with the
    /// historical sharding.
    pub fn spawn_with(
        items: Vec<Box<dyn Pollable>>,
        workers: usize,
        stop: Arc<AtomicBool>,
        cfg: ExecutorConfig,
    ) -> Self {
        let workers = workers.max(1).min(items.len().max(1));
        let live = items.len();
        let mut queues: Vec<VecDeque<Machine>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, inner) in items.into_iter().enumerate() {
            queues[i % workers].push_back(Machine {
                inner,
                idle_streak: 0,
            });
        }
        let pool = Arc::new(Pool {
            queues: queues.into_iter().map(Mutex::new).collect(),
            cold: Mutex::new(VecDeque::new()),
            live: AtomicUsize::new(live),
            epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            stop,
            counters: (0..workers).map(|_| Counters::default()).collect(),
            cfg,
        });
        let threads = (0..workers)
            .map(|w| {
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("smi-worker-{w}"))
                    .spawn(move || worker_loop(w, &pool))
                    .expect("spawn executor worker")
            })
            .collect();
        ShardedExecutor { threads, pool }
    }

    /// Number of worker threads backing the pool.
    pub fn num_workers(&self) -> usize {
        self.threads.len()
    }

    /// Live snapshot of the per-worker scheduling counters.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.pool.counters.iter().map(Counters::snapshot).collect()
    }

    /// Join every worker (call after raising the stop flag, or once all
    /// machines are expected to finish on their own) and return the final
    /// per-worker counters.
    ///
    /// Parked workers are kicked immediately: the stop flag is re-checked
    /// under the park lock before every wait, so a notify here reaches any
    /// worker that was parked — or about to park — when stop was raised.
    pub fn join(self) -> Vec<WorkerStats> {
        self.pool.wake_all();
        for t in self.threads {
            let _ = t.join();
        }
        self.pool.counters.iter().map(Counters::snapshot).collect()
    }
}

/// How many machine polls may elapse between checks of the stop flag, so
/// teardown latency is bounded by `K · slowest_poll` instead of the full
/// sweep over a worker's queue.
const STOP_CHECK_POLLS: u32 = 32;

/// While busy, pull a couple of cold machines back every this many sweeps so
/// a machine that went cold cannot be starved by a permanently hot queue.
const COLD_REFRESH_SWEEPS: u64 = 8;

fn worker_loop(w: usize, pool: &Pool) {
    let nw = pool.queues.len();
    let me = &pool.counters[w];
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9e37_79b9_7f4a_7c15 ^ w as u64);
    let mut idle_rounds = 0u32;
    let mut park_timeout = pool.cfg.park_min;
    let mut sweep = 0u64;
    let mut batch: Vec<Machine> = Vec::with_capacity(pool.cfg.batch);
    let mut keep: Vec<Machine> = Vec::with_capacity(pool.cfg.batch);
    let mut cold_out: Vec<Machine> = Vec::new();

    loop {
        if pool.stop.load(Ordering::Relaxed) {
            return;
        }
        if pool.live.load(Ordering::Acquire) == 0 {
            pool.wake_all();
            return;
        }
        sweep += 1;
        let epoch = pool.epoch.load(Ordering::Acquire);

        // 1. Drain a batch from the local run queue.
        {
            let mut q = pool.queues[w].lock();
            let n = q.len().min(pool.cfg.batch);
            batch.extend(q.drain(..n));
        }

        // 2. Locally out of work: steal half a victim's queue. Victims are
        // visited in rotation from a random start; `try_lock` skips anyone
        // mid-drain rather than convoying behind them.
        if batch.is_empty() && pool.cfg.steal && nw > 1 {
            let start = rng.gen_range(0..nw);
            for i in 0..nw {
                let v = (start + i) % nw;
                if v == w {
                    continue;
                }
                let Some(mut q) = pool.queues[v].try_lock() else {
                    continue;
                };
                let n = q.len().div_ceil(2).min(pool.cfg.batch);
                if n == 0 {
                    continue;
                }
                let at = q.len() - n;
                batch.extend(q.split_off(at));
                me.steals.fetch_add(n as u64, Ordering::Relaxed);
                break;
            }
        }

        // 3. Re-offer cold machines: a full batch when out of work or when
        // the local queue has stopped progressing (its machines may be
        // blocked on evicted peers), a trickle when busy (so waking
        // machines are re-discovered even while every worker stays
        // saturated with hot ones). Re-offered machines get a fresh idle
        // budget — without the reset, one `Idle` poll would bounce them
        // straight back to the cold set before their pipeline peers ever
        // get warmed up alongside them.
        if pool.cfg.steal {
            let want = if batch.is_empty() || idle_rounds >= 2 {
                pool.cfg.batch
            } else if sweep.is_multiple_of(COLD_REFRESH_SWEEPS) {
                2
            } else {
                0
            };
            if want > 0 {
                let mut cold = pool.cold.lock();
                let n = cold.len().min(want);
                batch.extend(cold.drain(..n).map(|mut m| {
                    m.idle_streak = 0;
                    m
                }));
            }
        }

        if batch.is_empty() {
            // Nothing anywhere: back off — spin briefly, then yield, then
            // park on the condvar (timed: external producers like rank
            // threads and socket peers generate no wake hints).
            idle_rounds += 1;
            if idle_rounds < 4 {
                std::hint::spin_loop();
            } else if idle_rounds < 64 {
                std::thread::yield_now();
            } else {
                park(pool, w, epoch, &mut park_timeout);
            }
            continue;
        }

        // 4. Poll the batch, checking the stop flag every
        // `STOP_CHECK_POLLS` polls so teardown cannot wait for a full
        // sweep over a long queue of slow machines.
        let mut progressed = false;
        let mut polls_since_check = 0u32;
        let mut stopping = false;
        for mut m in batch.drain(..) {
            if stopping {
                keep.push(m);
                continue;
            }
            match m.inner.poll() {
                Step::Progress => {
                    m.idle_streak = 0;
                    progressed = true;
                    me.progress.fetch_add(1, Ordering::Relaxed);
                    keep.push(m);
                }
                Step::Idle => {
                    m.idle_streak = m.idle_streak.saturating_add(1);
                    keep.push(m);
                }
                Step::Done => {
                    if pool.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        pool.wake_all();
                    }
                }
            }
            me.polls.fetch_add(1, Ordering::Relaxed);
            polls_since_check += 1;
            if polls_since_check >= STOP_CHECK_POLLS {
                polls_since_check = 0;
                stopping = pool.stop.load(Ordering::Relaxed);
            }
        }

        // 5. Return survivors: stale machines to the cold set, the rest to
        // the back of the local queue (round-robin fairness). On stop,
        // everything goes straight back — the loop head exits next.
        let cold_cut = if pool.cfg.steal && !stopping {
            pool.cfg.cold_after
        } else {
            u32::MAX
        };
        {
            let mut q = pool.queues[w].lock();
            for m in keep.drain(..) {
                if m.idle_streak >= cold_cut {
                    cold_out.push(m);
                } else {
                    q.push_back(m);
                }
            }
        }
        if !cold_out.is_empty() {
            pool.cold.lock().extend(cold_out.drain(..));
        }

        if progressed {
            idle_rounds = 0;
            park_timeout = pool.cfg.park_min;
            pool.epoch.fetch_add(1, Ordering::Release);
            // Hint one parked sibling: there may now be stealable work or
            // downstream machines made ready by this sweep.
            pool.wake_one();
        } else {
            idle_rounds += 1;
            if idle_rounds < 4 {
                std::hint::spin_loop();
            } else if idle_rounds < 64 {
                std::thread::yield_now();
            } else {
                park(pool, w, epoch, &mut park_timeout);
            }
        }
    }
}

/// Park on the pool condvar until a wake hint or the (progressively
/// doubling) timeout. `epoch` is the generation observed at the start of
/// the caller's fruitless sweep: any progress bumped since then aborts the
/// park, and because wakers bump it before taking `park_lock`, the re-check
/// under the lock closes the lost-wakeup window.
fn park(pool: &Pool, w: usize, epoch: u64, timeout: &mut Duration) {
    let mut g = pool.park_lock.lock();
    if pool.stop.load(Ordering::Relaxed)
        || pool.live.load(Ordering::Acquire) == 0
        || pool.epoch.load(Ordering::Acquire) != epoch
    {
        return;
    }
    pool.parked.fetch_add(1, Ordering::SeqCst);
    pool.counters[w].parks.fetch_add(1, Ordering::Relaxed);
    let _ = pool.park_cv.wait_for(&mut g, *timeout);
    pool.parked.fetch_sub(1, Ordering::SeqCst);
    *timeout = (*timeout * 2).min(pool.cfg.park_max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Countdown {
        left: u64,
        hits: Arc<AtomicU64>,
    }

    impl Pollable for Countdown {
        fn poll(&mut self) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            self.left -= 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
            Step::Progress
        }
    }

    #[test]
    fn drives_all_machines_to_completion() {
        let hits = Arc::new(AtomicU64::new(0));
        let items: Vec<Box<dyn Pollable>> = (0..10)
            .map(|i| {
                Box::new(Countdown {
                    left: i + 1,
                    hits: hits.clone(),
                }) as Box<dyn Pollable>
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn(items, 3, stop);
        assert_eq!(ex.num_workers(), 3);
        ex.join(); // workers exit once every machine is Done
        assert_eq!(hits.load(Ordering::Relaxed), (1..=10).sum::<u64>());
    }

    #[test]
    fn stop_flag_releases_idle_workers() {
        struct Forever;
        impl Pollable for Forever {
            fn poll(&mut self) -> Step {
                Step::Idle
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn(vec![Box::new(Forever)], 1, stop.clone());
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::SeqCst);
        ex.join(); // must terminate
    }

    #[test]
    fn block_on_completes_and_times_out() {
        let mut n = 0;
        let got = block_on_deadline(Duration::from_secs(1), None, None, "t", || {
            n += 1;
            Ok(if n == 3 {
                BlockingStep::Ready(42)
            } else {
                BlockingStep::Progress
            })
        })
        .unwrap();
        assert_eq!(got, 42);
        let err = block_on_deadline::<()>(Duration::from_millis(10), None, None, "never", || {
            Ok(BlockingStep::Pending)
        });
        assert!(matches!(err, Err(SmiError::Timeout { .. })));
    }

    #[test]
    fn overall_deadline_bounds_trickling_progress() {
        // A closure reporting Progress forever keeps resetting the stall
        // deadline; only the overall deadline can end it.
        let start = Instant::now();
        let err = block_on_deadline::<()>(
            Duration::from_secs(10),
            Some(start + Duration::from_millis(50)),
            None,
            "trickle",
            || {
                std::thread::sleep(Duration::from_millis(1));
                Ok(BlockingStep::Progress)
            },
        );
        assert!(matches!(err, Err(SmiError::DeadlineExceeded { .. })));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn worker_count_capped_by_item_count() {
        let stop = Arc::new(AtomicBool::new(false));
        let items: Vec<Box<dyn Pollable>> = (0..2)
            .map(|_| {
                Box::new(Countdown {
                    left: 1,
                    hits: Arc::new(AtomicU64::new(0)),
                }) as Box<dyn Pollable>
            })
            .collect();
        let ex = ShardedExecutor::spawn(items, 16, stop);
        assert_eq!(ex.num_workers(), 2);
        ex.join();
    }

    /// One machine with lots of work, seeded onto worker 0's queue next to
    /// nothing else, while worker 1 starts empty: worker 1 must steal it (or
    /// its queue-mates) rather than spin idle forever.
    #[test]
    fn idle_worker_steals_from_busy_victim() {
        let hits = Arc::new(AtomicU64::new(0));
        // 8 machines, all seeded round-robin over 2 workers; the odd-queue
        // machines finish instantly, so worker 1 runs dry and must steal
        // the long-running even-queue machines to share the load.
        let items: Vec<Box<dyn Pollable>> = (0..8)
            .map(|i| {
                Box::new(Countdown {
                    left: if i % 2 == 0 { 200_000 } else { 1 },
                    hits: hits.clone(),
                }) as Box<dyn Pollable>
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ExecutorConfig {
            batch: 1,
            ..ExecutorConfig::default()
        };
        let ex = ShardedExecutor::spawn_with(items, 2, stop, cfg);
        let stats = ex.join();
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 200_000 + 4);
        let steals: u64 = stats.iter().map(|s| s.steals).sum();
        assert!(steals > 0, "no machine was ever stolen: {stats:?}");
        let progress: u64 = stats.iter().map(|s| s.progress).sum();
        assert_eq!(progress, 4 * 200_000 + 4);
    }

    /// Teardown latency regression (ISSUE 8 satellite): a large queue of
    /// always-idle machines with slow polls must not delay the stop flag by
    /// a full sweep — the loop checks it every [`STOP_CHECK_POLLS`] polls.
    #[test]
    fn stop_checked_mid_sweep_with_large_idle_shard() {
        struct SlowIdle;
        impl Pollable for SlowIdle {
            fn poll(&mut self) -> Step {
                std::thread::sleep(Duration::from_micros(500));
                Step::Idle
            }
        }
        // One worker, one queue of 1024 machines at 500 µs per poll: a full
        // sweep is ~0.5 s. Disable stealing/cold eviction so the queue
        // stays a single static shard (the historical worst case), and use
        // a large batch so the sweep really is one long poll run.
        let cfg = ExecutorConfig {
            steal: false,
            batch: 1024,
            ..ExecutorConfig::default()
        };
        let items: Vec<Box<dyn Pollable>> = (0..1024)
            .map(|_| Box::new(SlowIdle) as Box<dyn Pollable>)
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn_with(items, 1, stop.clone(), cfg);
        std::thread::sleep(Duration::from_millis(20)); // mid-sweep
        let t = Instant::now();
        stop.store(true, Ordering::SeqCst);
        ex.join();
        let dt = t.elapsed();
        // Bound: STOP_CHECK_POLLS polls at 500 µs each, plus generous CI
        // slack — but far below the ~0.5 s full sweep.
        assert!(
            dt < Duration::from_millis(250),
            "teardown took {dt:?} (full sweep would be ~512 ms)"
        );
    }

    /// A quiescent pool parks on the condvar (observable via the parks
    /// counter) instead of spinning, and still completes promptly when a
    /// machine wakes up.
    #[test]
    fn idle_workers_park_and_resume() {
        struct GateThenCount {
            gate: Arc<AtomicBool>,
            left: u32,
        }
        impl Pollable for GateThenCount {
            fn poll(&mut self) -> Step {
                if !self.gate.load(Ordering::Relaxed) {
                    return Step::Idle;
                }
                if self.left == 0 {
                    return Step::Done;
                }
                self.left -= 1;
                Step::Progress
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ExecutorConfig {
            park_min: Duration::from_micros(100),
            park_max: Duration::from_millis(2),
            ..ExecutorConfig::default()
        };
        let items: Vec<Box<dyn Pollable>> = (0..4)
            .map(|_| {
                Box::new(GateThenCount {
                    gate: gate.clone(),
                    left: 100,
                }) as Box<dyn Pollable>
            })
            .collect();
        let ex = ShardedExecutor::spawn_with(items, 2, stop, cfg);
        // Workers park only after their spin and yield rounds, which on a
        // loaded box can take many scheduler slices: wait, don't assume.
        let both_parked = || ex.worker_stats().iter().all(|s| s.parks > 0);
        let start = Instant::now();
        while !both_parked() && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(both_parked(), "never parked: {:?}", ex.worker_stats());
        // While quiescent the workers must not be busy-polling: per 60 ms a
        // 50 µs sleep loop would issue ~1200 sweeps × 2 machines per
        // worker; parking with a doubling timeout caps polls far below
        // that. (The sleep may overrun under load, so budget per 60 ms.)
        let polls = || ex.worker_stats().iter().map(|s| s.polls).sum::<u64>();
        let (before, t) = (polls(), Instant::now());
        std::thread::sleep(Duration::from_millis(60));
        let (polls, windows) = (polls() - before, t.elapsed().as_millis() as u64 / 60);
        assert!(
            polls < 2000 * windows,
            "quiescent pool polled {polls} times"
        );
        let t = Instant::now();
        gate.store(true, Ordering::SeqCst);
        ex.join(); // machines drain to Done; workers exit on live == 0
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "resume after wake took {:?}",
            t.elapsed()
        );
    }

    /// Machines that go idle long enough are evicted to the cold set and
    /// re-offered once they would be ready again — the hot machine is never
    /// starved by them, and cold machines still finish.
    #[test]
    fn cold_machines_are_evicted_and_reoffered() {
        struct ColdUntil {
            gate: Arc<AtomicBool>,
            done: Arc<AtomicU64>,
        }
        impl Pollable for ColdUntil {
            fn poll(&mut self) -> Step {
                if self.gate.load(Ordering::Relaxed) {
                    self.done.fetch_add(1, Ordering::Relaxed);
                    Step::Done
                } else {
                    Step::Idle
                }
            }
        }
        let gate = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicU64::new(0));
        let mut items: Vec<Box<dyn Pollable>> = (0..32)
            .map(|_| {
                Box::new(ColdUntil {
                    gate: gate.clone(),
                    done: done.clone(),
                }) as Box<dyn Pollable>
            })
            .collect();
        items.push(Box::new(Countdown {
            left: 3_000_000,
            hits: hits.clone(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ExecutorConfig {
            cold_after: 4,
            ..ExecutorConfig::default()
        };
        let ex = ShardedExecutor::spawn_with(items, 1, stop, cfg);
        // Let the hot machine run while the 32 idle ones go cold; then open
        // the gate — the cold set must be re-offered so they all finish.
        std::thread::sleep(Duration::from_millis(50));
        gate.store(true, Ordering::SeqCst);
        ex.join();
        assert_eq!(done.load(Ordering::Relaxed), 32);
        assert_eq!(hits.load(Ordering::Relaxed), 3_000_000);
    }

    /// Disabling `work_stealing` reproduces the static placement: no
    /// steals, no cold evictions, results identical.
    #[test]
    fn static_mode_never_steals() {
        let hits = Arc::new(AtomicU64::new(0));
        let items: Vec<Box<dyn Pollable>> = (0..16)
            .map(|i| {
                Box::new(Countdown {
                    left: (i as u64 + 1) * 1000,
                    hits: hits.clone(),
                }) as Box<dyn Pollable>
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ExecutorConfig {
            steal: false,
            ..ExecutorConfig::default()
        };
        let ex = ShardedExecutor::spawn_with(items, 4, stop, cfg);
        let stats = ex.join();
        assert_eq!(
            hits.load(Ordering::Relaxed),
            (1..=16u64).map(|i| i * 1000).sum::<u64>()
        );
        assert!(stats.iter().all(|s| s.steals == 0), "{stats:?}");
    }
}
