//! The rank-local executor: a fixed pool of worker threads cooperatively
//! driving many poll-mode state machines.
//!
//! In the paper a rank's application kernels and its CKS/CKR kernels share
//! one FPGA and talk over on-chip FIFOs; only the QSFP links cross devices.
//! The pool keeps that split in software:
//!
//! * **Placement** — every machine names its rank ([`Pollable::home_rank`]).
//!   Worker `w` of `W` is seeded with the contiguous block
//!   `[w·L/W, (w+1)·L/W)` of the `L` local ranks, a rank's task and all its
//!   CK machines together, so a rank's FIFOs are touched by one thread and
//!   only block-boundary links cross workers. Machines without a rank —
//!   socket pumps, one per connection — are dealt round-robin. A process's
//!   data listener is not a machine: nothing polls it (`transport::socket`).
//! * **Run queues** — a worker takes batches of at most
//!   [`ExecutorConfig::batch`] machines from its queue, and never more than
//!   half of it while a sibling could steal: the rest stays visible to
//!   thieves while the batch is polled.
//! * **Stealing** — a worker whose run queue is empty, and whose own cold
//!   machines stayed idle when polled, takes half of a victim's visible
//!   queue, so hot machines migrate to idle workers. A progressing worker
//!   unparks a sibling only when it left stealable surplus or re-warmed an
//!   aged machine.
//! * **Cold lists** — a machine that is out of work leaves the run queue
//!   for its home worker's private cold list (a stolen one is first handed
//!   home), so an empty run queue means "out of hot work", which is what
//!   allows a steal. How it gets back depends on who can tell that it has
//!   work again:
//!   * *CK machines are woken.* Every input a CK machine drains — an
//!     endpoint lane (a crossbeam FIFO), or a CKR's burst queues, which
//!     keep no condvar — carries that machine's [`Wake`]; the deliveries a
//!     CKR writes are burst queues too, read by rank code that names no
//!     wake. Every producer — an endpoint's push (poll-mode or blocking), a
//!     peer machine's forward, the socket pump's demux, the drop of a
//!     sender, the close of a connection — raises it afterwards. At home
//!     the machine goes to sleep on its first poll that leaves the handle
//!     down and either moved nothing (`Idle`) or moved data and then found
//!     every input empty (`Drained`: no confirming idle poll follows a
//!     draining one): the worker lowers it before the poll reads any input
//!     and files the machine with a compare-and-swap that a raise since
//!     then fails, so a push racing the poll is never lost. It is not
//!     polled again until a raise finds it asleep and names it in its
//!     home's wake list: a sleeping kernel costs no polls and a sweep costs
//!     O(woken). The home worker drains that list after its hot batch and
//!     again after each round of woken machines — they run once the poll
//!     that woke them has returned, never nested in it — until nobody was
//!     woken or the sweep has issued a batch's worth of polls, so a packet
//!     crosses a chain of idle kernels in one sweep, not one sweep of the
//!     aged machines (a pump's poll is a syscall) per hop. A machine
//!     holding a burst its output refused keeps its own handle up — room in
//!     an output raises nothing — and stays runnable. A stolen one is aged
//!     like the rest while it is away (its thief keeps polling it, or the
//!     steal would buy nothing) and sleeps once it is handed home.
//!   * *Rank tasks and socket pumps are aged.* Their readiness is user
//!     code's or the kernel's (`std` has no readiness API, so a pump learns
//!     that bytes arrived only by calling `recv`): one without progress for
//!     [`ExecutorConfig::cold_after`] passes of its worker goes cold and is
//!     re-polled where it lies — a batch when the worker has nothing hot or
//!     nothing progressing, two per sweep otherwise — rejoining the run
//!     queue only by progressing.
//! * **Parking** — a worker with no hot work, a fruitless cold pass and
//!   nothing to steal backs off (spin → yield) and parks its thread. A
//!   raise for one of its sleepers, a machine handed home, a steal hint and
//!   stop all unpark it at once; the doubling timeout
//!   ([`ExecutorConfig::park_min`] → `park_max`) is the backstop for the
//!   aged machines only.
//!
//! Per-worker counters surface in [`crate::RunReport::worker_stats`]. Like
//! MPI Streams, a stream's producer, channel and consumer share one
//! execution resource unless load forces them apart.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use parking_lot::Mutex;
use rand::{Rng, SeedableRng};

/// Outcome of one cooperative `poll` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Moved at least one packet / made observable progress.
    Progress,
    /// Moved data, then found every live input empty with nothing held
    /// back: progress, and asleep at once like [`Step::Idle`] (CK machines
    /// only, never a rank task or a pump).
    Drained,
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

    /// The world rank this machine belongs to — a rank's task and its
    /// CKS/CKR kernels — which the executor places on one worker. `None`
    /// for machines that serve no single rank: the socket pumps, which are
    /// dealt round-robin.
    fn home_rank(&self) -> Option<usize> {
        None
    }

    /// The handle every producer into this machine's inputs raises after a
    /// push. A machine that has one sleeps, unpolled, from the moment it
    /// reports [`Step::Idle`] or [`Step::Drained`] with the handle down
    /// until the next raise; one without (its readiness is user code's or
    /// the kernel's) is aged and re-polled instead.
    fn wake(&self) -> Option<&Wake> {
        None
    }
}

/// What a raise needs of a sleeping machine's home worker.
#[derive(Default)]
struct Doorbell {
    /// Slots of the machines asleep at this worker that were raised since
    /// it last looked: each once, and filed by the time it looks.
    woken: Mutex<Vec<usize>>,
    /// Up while the worker is parked, or about to be: raised *before* its
    /// last look at `woken`, its run queue and `stop`/`live`, so whoever
    /// wrote one of those and reads `false` here may skip the unpark.
    parked: AtomicBool,
    thread: OnceLock<Thread>,
}

impl Doorbell {
    /// Unpark the worker if it is parked; says whether it was.
    fn unpark(&self) -> bool {
        let parked = self.parked.load(Ordering::SeqCst);
        if let (true, Some(t)) = (parked, self.thread.get()) {
            t.unpark();
        }
        parked
    }
}

/// States of a [`Wake`]: in the run queue or mid-poll with nothing raised
/// since that poll began; raised; filed among its home worker's sleepers.
const AWAKE: u8 = 0;
const RAISED: u8 = 1;
const ASLEEP: u8 = 2;

#[derive(Default)]
struct WakeState {
    state: AtomicU8,
    /// The home worker's doorbell and the machine's slot there, set once
    /// when the machine is spawned.
    home: OnceLock<(Arc<Doorbell>, usize)>,
}

/// The wake handle of one machine: its producers raise it after every push,
/// its worker lowers it before every poll and files the machine asleep only
/// if it is still down after an idle or draining one. A raise that finds the
/// machine asleep names it in its home worker's wake list.
#[derive(Clone, Default)]
pub(crate) struct Wake(Arc<WakeState>);

impl Wake {
    /// Call *after* the push (or the close) the machine must not miss. The
    /// worker lowers the handle before its poll reads any input and files
    /// the machine with a compare-and-swap that a raise since then fails,
    /// so a raise is seen by that poll's reads, by that swap, or — the
    /// machine asleep — by the wake list.
    pub fn raise(&self) {
        let s = &*self.0;
        // Look before swapping: a stream of pushes into a machine that is
        // already up must not keep writing the line its worker reads.
        if s.state.load(Ordering::SeqCst) != RAISED
            && s.state.swap(RAISED, Ordering::SeqCst) == ASLEEP
        {
            let (bell, slot) = s.home.get().expect("only a spawned machine sleeps");
            bell.woken.lock().push(*slot);
            bell.unpark();
        }
    }

    /// Raised by the machine itself, mid-poll, when it waits on something no
    /// producer will raise for (a full output). `Relaxed`: it publishes
    /// nothing, and the worker that reads it back after the poll is this
    /// thread.
    pub fn hold(&self) {
        self.0.state.store(RAISED, Ordering::Relaxed);
    }

    /// Lower the handle ahead of a poll. Reading a stale `AWAKE` only leaves
    /// a raise standing, which keeps the machine runnable for one more poll.
    fn lower(&self) {
        if self.0.state.load(Ordering::Relaxed) != AWAKE {
            self.0.state.store(AWAKE, Ordering::SeqCst);
        }
    }

    /// After an idle or draining poll: put the machine to sleep unless it was
    /// raised since [`Wake::lower`], and say in which slot to file it. Only
    /// its home worker asks.
    fn sleep(&self) -> Option<usize> {
        let s = &*self.0;
        let asleep = s
            .state
            .compare_exchange(AWAKE, ASLEEP, Ordering::SeqCst, Ordering::SeqCst);
        let (_, slot) = s.home.get().expect("only a spawned machine sleeps");
        asleep.ok().map(|_| *slot)
    }
}

/// Machines a worker takes from a run queue per lock acquisition. Larger
/// batches amortize queue locks; smaller ones migrate load at a finer grain.
const STEAL_BATCH: usize = 16;

/// Passes over a worker's share of the machines that one may go without
/// progress before it leaves the run queue for its home's cold list.
const COLD_IDLE_THRESHOLD: u32 = 64;

/// Park timeout of a worker with nothing hot, waking up or stealable: the
/// first one, and the cap it doubles up to per consecutive fruitless park —
/// the cap bounds the wake latency a long-quiescent worker adds.
const PARK_TIMEOUT_MIN: Duration = Duration::from_micros(100);
const PARK_TIMEOUT_MAX: Duration = Duration::from_millis(2);

/// Tuning of the executor pool; [`Default`] is what every run uses, the
/// fields exist so the pool's own tests can force an edge.
#[derive(Debug, Clone)]
pub(crate) struct ExecutorConfig {
    /// Maximum machines taken from a run queue (own or victim's) per lock
    /// acquisition, and polled before the queue lock is taken again.
    pub batch: usize,
    /// Passes of its worker, counted in polls issued, that a machine may
    /// sit without progress before it moves to its home's cold list.
    pub cold_after: u32,
    /// Initial (and minimum) park timeout of a fully idle worker.
    pub park_min: Duration,
    /// Cap of the progressively doubled park timeout.
    pub park_max: Duration,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            batch: STEAL_BATCH,
            cold_after: COLD_IDLE_THRESHOLD,
            park_min: PARK_TIMEOUT_MIN,
            park_max: PARK_TIMEOUT_MAX,
        }
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
    /// Times this worker parked for want of work.
    pub parks: u64,
}

/// A machine plus its scheduling state.
struct Machine {
    inner: Box<dyn Pollable>,
    /// Its last progress on the poll clock (= `Shard::polls`) of the worker
    /// holding it, translated (wrapping) when it changes hands.
    idle_since: u64,
    /// The worker it was placed on; a stolen machine gone cold returns there.
    home: usize,
    /// Its wake handle, which knows its slot among the sleepers of `home`.
    wake: Option<Wake>,
}

/// One worker's share of the pool, on a cache line of its own: what the
/// owner writes every sweep must not bounce a line a sibling is writing.
#[repr(align(64))]
#[derive(Default)]
struct Shard {
    /// The run queue. The owner takes batches from the front and re-queues
    /// survivors at the back; thieves split off the back half.
    queue: Mutex<VecDeque<Machine>>,
    bell: Arc<Doorbell>,
    /// Machines with a wake handle placed here: the size of the sleeper slab.
    sleepers: usize,
    polls: AtomicU64,
    progress: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl Shard {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            polls: self.polls.load(Ordering::Relaxed),
            progress: self.progress.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

/// State shared by all workers of one pool.
struct Pool {
    shards: Vec<Shard>,
    /// Machines the pool was spawned with.
    machines: usize,
    /// Machines not yet [`Step::Done`]; workers exit when it reaches zero.
    live: AtomicUsize,
    /// Workers parked, or about to be (raised with the worker's own
    /// [`Doorbell::parked`]): lets a busy worker's steal hint skip the
    /// doorbells, whose lines their owners write every sweep.
    parked: AtomicUsize,
    stop: Arc<AtomicBool>,
    cfg: ExecutorConfig,
}

impl Pool {
    /// Unpark every parked worker (stop / all done), or hint one to steal.
    fn wake(&self, all: bool) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        for shard in &self.shards {
            if shard.bell.unpark() && !all {
                return;
            }
        }
    }
}

/// The worker each machine starts on, by home rank: the `L` distinct ranks,
/// ascending, are cut into contiguous blocks — worker `w` of `W` owns
/// `[w·L/W, (w+1)·L/W)` — and machines without one are dealt round-robin.
fn place(homes: &[Option<usize>], workers: usize) -> Vec<usize> {
    let mut ranks: Vec<usize> = homes.iter().flatten().copied().collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut deal = (0..workers).cycle();
    let worker_of = |home: &Option<usize>| match home {
        Some(r) => {
            let i = ranks.binary_search(r).expect("collected above");
            ((i + 1) * workers - 1) / ranks.len()
        }
        None => deal.next().expect("workers >= 1"),
    };
    homes.iter().map(worker_of).collect()
}

/// Handle to the worker pool; joined at shutdown.
pub(crate) struct ShardedExecutor {
    threads: Vec<JoinHandle<()>>,
    pool: Arc<Pool>,
}

impl ShardedExecutor {
    /// [`ShardedExecutor::spawn_with`] under the default tuning.
    pub fn spawn(items: Vec<Box<dyn Pollable>>, workers: usize, stop: Arc<AtomicBool>) -> Self {
        Self::spawn_with(items, workers, stop, ExecutorConfig::default())
    }

    /// Seed `items` over `workers` run queues by home rank (see [`place`])
    /// and start the workers. A queue keeps the input order, so one worker
    /// polls the input sequence.
    ///
    /// Workers run until every machine is `Done` or `stop` is raised (end
    /// of run / panic teardown).
    pub fn spawn_with(
        items: Vec<Box<dyn Pollable>>,
        workers: usize,
        stop: Arc<AtomicBool>,
        cfg: ExecutorConfig,
    ) -> Self {
        let workers = workers.max(1).min(items.len().max(1));
        let live = items.len();
        let homes: Vec<Option<usize>> = items.iter().map(|m| m.home_rank()).collect();
        let mut shards: Vec<Shard> = (0..workers).map(|_| Shard::default()).collect();
        for (inner, home) in items.into_iter().zip(place(&homes, workers)) {
            let shard = &mut shards[home];
            let wake = inner.wake().cloned();
            if let Some(wake) = &wake {
                let home = (shard.bell.clone(), shard.sleepers);
                assert!(wake.0.home.set(home).is_ok(), "a machine is spawned once");
                shard.sleepers += 1;
            }
            shard.queue.get_mut().push_back(Machine {
                inner,
                idle_since: 0,
                home,
                wake,
            });
        }
        let pool = Arc::new(Pool {
            shards,
            machines: live,
            live: AtomicUsize::new(live),
            parked: AtomicUsize::new(0),
            stop,
            cfg,
        });
        let threads = (0..workers)
            .map(|w| {
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("smi-worker-{w}"))
                    .spawn(move || {
                        let run = AssertUnwindSafe(|| worker_loop(w, &pool));
                        if let Err(panic) = catch_unwind(run) {
                            // A machine panicked: no run survives that, so
                            // release the siblings (parked ones at once) and
                            // let `join` hand the payload to the caller.
                            pool.stop.store(true, Ordering::SeqCst);
                            pool.wake(true);
                            resume_unwind(panic);
                        }
                    })
                    .expect("spawn executor worker")
            })
            .collect();
        ShardedExecutor { threads, pool }
    }

    /// Unpark every parked worker, so the aged machines are polled now,
    /// not at the end of a park timeout.
    pub fn kick(&self) {
        self.pool.wake(true);
    }

    /// Number of worker threads backing the pool.
    pub fn num_workers(&self) -> usize {
        self.threads.len()
    }

    /// Snapshot of the per-worker scheduling counters (live until joined).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.pool.shards.iter().map(Shard::snapshot).collect()
    }

    /// Join every worker (call after raising the stop flag, or once all
    /// machines are expected to finish on their own) and return the final
    /// per-worker counters — or, like [`JoinHandle::join`], the payload of
    /// the first worker a panicking machine unwound.
    ///
    /// Parked workers are kicked at once: a parker raises its `parked` flag
    /// before its last check of the stop flag, so it sees that or this
    /// unpark.
    pub fn join(mut self) -> std::thread::Result<Vec<WorkerStats>> {
        self.pool.wake(true);
        let mut panic = None;
        for t in self.threads.drain(..) {
            if let Err(p) = t.join() {
                panic.get_or_insert(p);
            }
        }
        panic.map_or_else(|| Ok(self.worker_stats()), Err)
    }
}

/// How many machine polls may elapse between checks of the stop flag, so
/// teardown latency is bounded by `K · slowest_poll` instead of the full
/// sweep over a worker's queue.
const STOP_CHECK_POLLS: u64 = 32;

/// Cold machines — aged ones, which have no wake handle — a busy worker
/// re-polls per sweep, so one whose input arrived after it went cold is
/// found without the hot queue stalling first.
const COLD_TRICKLE: usize = 2;

/// Fruitless sweeps in a row after which a worker stops yielding and parks.
const PARK_AFTER_ROUNDS: u32 = 64;

/// The `idle`-th fruitless round of a thread that waits for the workers:
/// spin briefly, then yield, then nap, so the wait cannot starve them and
/// a short one never pays a sleep.
pub(crate) fn back_off(idle: u32) {
    if idle < 16 {
        std::hint::spin_loop();
    } else if idle < 128 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

fn worker_loop(w: usize, pool: &Pool) {
    let nw = pool.shards.len();
    let cfg = &pool.cfg;
    let me = &pool.shards[w];
    let thieves = nw > 1;
    let bell = &*me.bell;
    let _ = bell.thread.set(std::thread::current());
    // Idleness of a machine without a wake handle runs on this worker's
    // poll clock, not in polls of the machine: once the quiescent machines
    // are gone a pass is short and `cold_after` polls of one machine go by
    // between two messages.
    let cold_span = cfg.cold_after as u64 * (pool.machines / nw).max(cfg.batch) as u64;
    let mut clock = 0u64;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9e37_79b9_7f4a_7c15 ^ w as u64);
    let mut idle_rounds = 0u32;
    let mut park_timeout = cfg.park_min;
    let mut batch: Vec<Machine> = Vec::with_capacity(cfg.batch);
    let mut keep: Vec<Machine> = Vec::with_capacity(cfg.batch);
    // Machines placed here that went cold; only this worker touches them.
    // The ones with a wake handle sleep in their slot until a raise names
    // it in `bell.woken`; the others queue up for the trickle.
    let mut asleep: Vec<Option<Machine>> = (0..me.sleepers).map(|_| None).collect();
    let mut woken: Vec<usize> = Vec::new();
    let mut cold: VecDeque<Machine> = VecDeque::new();

    loop {
        if pool.stop.load(Ordering::Relaxed) {
            return;
        }
        if pool.live.load(Ordering::Acquire) == 0 {
            pool.wake(true);
            return;
        }

        // 1. Take a batch from the local run queue; while a sibling could
        // steal, at most half, so a thief sees the rest meanwhile. A parking
        // worker takes all it owns: the park timeout bounds any staleness.
        let parking = idle_rounds >= PARK_AFTER_ROUNDS;
        let limit = if parking { usize::MAX } else { cfg.batch };
        let surplus = {
            let mut q = me.queue.lock();
            let visible = if thieves && !parking { q.len() / 2 } else { 0 };
            let take = (q.len() - visible).min(limit);
            batch.extend(q.drain(..take));
            !q.is_empty()
        };

        // 2. After the hot ones, the sleepers raised since the last sweep,
        // then the aged cold machines: a batch when there is no hot work or
        // it has stopped progressing (it may be blocked on a cold peer), a
        // trickle when busy.
        let hot = batch.len();
        rouse(bell, &mut woken, &mut asleep, &mut batch);
        let mut cold_from = batch.len();
        let want = if hot == 0 || idle_rounds >= 2 {
            limit
        } else {
            COLD_TRICKLE
        };
        batch.extend(cold.drain(..want.min(cold.len())));

        // 3. Poll the batch and sort the survivors: warm machines back to
        // the local queue, cold ones to their home worker. Once the stop
        // flag (checked every `STOP_CHECK_POLLS` polls) is up, all go back.
        // Then follow the wakes: the sleepers those polls raised run next,
        // round by round, while the sweep is short of a batch's worth of
        // polls — a packet crosses a chain of idle kernels in one sweep.
        let (mut polls, mut progress) = (0u64, 0u64);
        let mut rewarmed = false;
        let mut stopping = false;
        while !batch.is_empty() {
            for (i, mut m) in batch.drain(..).enumerate() {
                let mut idle = false;
                if !stopping {
                    polls += 1;
                    // Down before the poll reads any input: a push racing the
                    // poll is seen by its reads or fails the `sleep` below.
                    if let Some(wake) = &m.wake {
                        wake.lower();
                    }
                    match m.inner.poll() {
                        step @ (Step::Progress | Step::Drained) => {
                            m.idle_since = clock + polls;
                            progress += 1;
                            rewarmed |= i >= cold_from;
                            idle = step == Step::Drained;
                        }
                        Step::Idle => idle = true,
                        Step::Done => {
                            if pool.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                                pool.wake(true);
                            }
                            continue;
                        }
                    }
                    if polls.is_multiple_of(STOP_CHECK_POLLS) {
                        stopping = pool.stop.load(Ordering::Relaxed);
                    }
                }
                let idle_for = (clock + polls).wrapping_sub(m.idle_since);
                // At home, a machine with a wake handle goes to sleep on its
                // first idle or draining poll that leaves the handle down —
                // a drained kernel needs no confirming poll. One without goes
                // cold after `cold_span`, and so does a stolen one — its thief
                // polls it like any aged machine, which is what makes a steal
                // worth its while — to be handed home and filed there.
                let at_home = m.home == w;
                let handle = m.wake.as_ref().filter(|_| at_home);
                match handle.map(|wake| idle.then(|| wake.sleep()).flatten()) {
                    Some(Some(slot)) => asleep[slot] = Some(m),
                    Some(None) => keep.push(m),
                    None if stopping || idle_for < cold_span => keep.push(m),
                    None if at_home => cold.push_back(m),
                    None => {
                        // Same age on the home's clock: one more idle poll there
                        // files it. The home is unparked for it.
                        let home = &pool.shards[m.home];
                        m.idle_since = home.polls.load(Ordering::Relaxed).wrapping_sub(idle_for);
                        home.queue.lock().push_back(m);
                        home.bell.unpark();
                    }
                }
            }
            if !stopping && polls < cfg.batch as u64 {
                rouse(bell, &mut woken, &mut asleep, &mut batch);
                cold_from = usize::MAX;
            }
        }
        clock += polls;
        me.polls.fetch_add(polls, Ordering::Relaxed);
        me.progress.fetch_add(progress, Ordering::Relaxed);
        if !keep.is_empty() {
            me.queue.lock().extend(keep.drain(..));
        }

        if progress > 0 {
            idle_rounds = 0;
            park_timeout = cfg.park_min;
            if thieves && (surplus || rewarmed) {
                pool.wake(false);
            }
            continue;
        }

        // 4. Nothing hot, and nothing cold woke up: steal half a victim's
        // visible queue for the next sweep (victims in rotation from a
        // random start, skipping anyone mid-drain). Own cold machines come
        // first: a worker woken at a phase start, all its machines cold but
        // about to be ready, would else take and keep its sibling's ranks.
        if hot == 0 && thieves {
            let start = rng.gen_range(0..nw);
            for v in (0..nw).map(|i| (start + i) % nw).filter(|&v| v != w) {
                let Some(mut q) = pool.shards[v].queue.try_lock() else {
                    continue;
                };
                let n = q.len().div_ceil(2).min(cfg.batch);
                if n > 0 {
                    let at = q.len() - n;
                    batch.extend(q.split_off(at));
                    // Idle ages carry over onto this worker's poll clock.
                    let skew = clock.wrapping_sub(pool.shards[v].polls.load(Ordering::Relaxed));
                    for m in &mut batch {
                        m.idle_since = m.idle_since.wrapping_add(skew);
                    }
                    me.steals.fetch_add(n as u64, Ordering::Relaxed);
                    break;
                }
            }
        }
        if batch.is_empty() {
            // Nothing moved: spin briefly, then yield, then park — only
            // once the run queue has emptied into the cold list (a machine
            // still in it may be mid-stream).
            idle_rounds += 1;
            if idle_rounds < 4 {
                std::hint::spin_loop();
            } else if !parking || hot > 0 {
                std::thread::yield_now();
            } else {
                park(pool, w, &mut park_timeout);
            }
        }
    }
}

/// Move the sleepers raised since the last look from their slots into `batch`.
fn rouse(
    bell: &Doorbell,
    woken: &mut Vec<usize>,
    asleep: &mut [Option<Machine>],
    batch: &mut Vec<Machine>,
) {
    std::mem::swap(&mut *bell.woken.lock(), woken);
    batch.extend(woken.drain(..).map(|slot| {
        let sleeper = asleep[slot].take();
        sleeper.expect("a raise names a sleeper once, and it was filed before this look")
    }));
}

/// Park until unparked — a raise for a sleeper of this worker, a machine
/// handed home, a steal hint, stop — or the doubling timeout: timed because
/// rank tasks and socket pumps become ready without anyone raising a thing.
fn park(pool: &Pool, w: usize, timeout: &mut Duration) {
    let me = &pool.shards[w];
    pool.parked.fetch_add(1, Ordering::SeqCst);
    me.bell.parked.store(true, Ordering::SeqCst);
    if !pool.stop.load(Ordering::SeqCst)
        && pool.live.load(Ordering::SeqCst) > 0
        && me.bell.woken.lock().is_empty()
        && me.queue.lock().is_empty()
    {
        me.parks.fetch_add(1, Ordering::Relaxed);
        std::thread::park_timeout(*timeout);
        *timeout = (*timeout * 2).min(pool.cfg.park_max);
    }
    me.bell.parked.store(false, Ordering::SeqCst);
    pool.parked.fetch_sub(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

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

    /// Gives any machine a home rank.
    struct Homed<M>(usize, M);

    impl<M: Pollable> Pollable for Homed<M> {
        fn poll(&mut self) -> Step {
            self.1.poll()
        }
        fn home_rank(&self) -> Option<usize> {
            Some(self.0)
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
        ex.join().unwrap(); // workers exit once every machine is Done
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
        ex.join().unwrap(); // must terminate
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
        ex.join().unwrap();
    }

    /// Homeless machines alternate over 2 workers; the odd ones finish at
    /// once, so worker 1 runs dry and must steal some of the long-running
    /// even ones rather than park beside a busy sibling.
    #[test]
    fn idle_worker_steals_from_busy_victim() {
        let hits = Arc::new(AtomicU64::new(0));
        let items: Vec<Box<dyn Pollable>> = (0..8)
            .map(|i| {
                Box::new(Countdown {
                    left: if i % 2 == 0 { 200_000 } else { 1 },
                    hits: hits.clone(),
                }) as Box<dyn Pollable>
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn(items, 2, stop);
        let stats = ex.join().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 200_000 + 4);
        let steals: u64 = stats.iter().map(|s| s.steals).sum();
        assert!(steals > 0, "no machine was ever stolen: {stats:?}");
        let progress: u64 = stats.iter().map(|s| s.progress).sum();
        assert_eq!(progress, 4 * 200_000 + 4);
    }

    /// The skewed cluster at default tuning (batch 16): six hot machines
    /// share home rank 0, every machine of ranks 1..4 finishes at once. The
    /// hot set is smaller than a batch, so worker 1 can only get at it if
    /// worker 0 leaves part of its queue visible while it polls.
    #[test]
    fn hot_rank_is_shared_at_default_tuning() {
        let hits = Arc::new(AtomicU64::new(0));
        let machine = |rank: usize, left: u64| {
            let hits = hits.clone();
            Box::new(Homed(rank, Countdown { left, hits })) as Box<dyn Pollable>
        };
        let mut items: Vec<Box<dyn Pollable>> = (0..6).map(|_| machine(0, 300_000)).collect();
        items.extend((1..4).flat_map(|r| [machine(r, 1), machine(r, 1)]));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = ShardedExecutor::spawn(items, 2, stop).join().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 6 * 300_000 + 6);
        assert_eq!(
            stats.iter().map(|s| s.progress).sum::<u64>(),
            6 * 300_000 + 6
        );
        assert!(stats[1].steals > 0, "worker 1 never stole: {stats:?}");
        assert!(
            stats[1].progress > 4,
            "worker 1 did none of the hot work: {stats:?}"
        );
    }

    #[test]
    fn placement_is_rank_local_contiguous_and_balanced() {
        // 10 ranks (world ranks 100, 110, .. — placement sees only their
        // order) with 3 machines each, interleaved the way wiring emits
        // them: all CK machines rank by rank, then pumps, then the tasks.
        let ranks: Vec<usize> = (0..10).map(|i| 100 + 10 * i).collect();
        let mut homes: Vec<Option<usize>> = ranks.iter().flat_map(|&r| [Some(r); 2]).collect();
        homes.extend([None; 5]);
        homes.extend(ranks.iter().map(|&r| Some(r)));
        for workers in [1, 2, 3, 4, 7, 10, 16] {
            let placed = place(&homes, workers);
            assert_eq!(placed.len(), homes.len());
            let worker_of = |r: usize| {
                let mut on = homes
                    .iter()
                    .zip(&placed)
                    .filter(|(h, _)| **h == Some(r))
                    .map(|(_, &w)| w);
                let first = on.next().expect("rank has machines");
                assert!(
                    on.all(|w| w == first),
                    "rank {r} split at {workers} workers"
                );
                first
            };
            let owners: Vec<usize> = ranks.iter().map(|&r| worker_of(r)).collect();
            assert!(
                owners.windows(2).all(|p| p[0] <= p[1]),
                "blocks not contiguous at {workers} workers: {owners:?}"
            );
            let per_worker: Vec<usize> = (0..workers)
                .map(|w| owners.iter().filter(|&&o| o == w).count())
                .collect();
            let (min, max) = (
                per_worker.iter().min().unwrap(),
                per_worker.iter().max().unwrap(),
            );
            assert!(max - min <= 1, "unbalanced blocks: {per_worker:?}");
            // Homeless machines are dealt round-robin.
            let dealt = homes.iter().zip(&placed).filter(|(h, _)| h.is_none());
            assert!(dealt.enumerate().all(|(k, (_, &w))| w == k % workers));
        }
        // All homeless: plain round-robin.
        assert_eq!(place(&[None; 5], 2), [0, 1, 0, 1, 0]);
    }

    /// With one worker the queue order is the input order, whatever the
    /// homes — the one-worker schedule does not depend on placement.
    #[test]
    fn one_worker_polls_in_input_order() {
        struct Recorder {
            id: usize,
            log: Arc<Mutex<Vec<usize>>>,
        }
        impl Pollable for Recorder {
            fn poll(&mut self) -> Step {
                self.log.lock().push(self.id);
                Step::Done
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let items: Vec<Box<dyn Pollable>> = (0..40)
            .map(|id| {
                let m = Recorder {
                    id,
                    log: log.clone(),
                };
                match id % 3 {
                    0 => Box::new(m) as Box<dyn Pollable>,
                    _ => Box::new(Homed(7 - id % 5, m)),
                }
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        ShardedExecutor::spawn(items, 1, stop).join().unwrap();
        assert_eq!(*log.lock(), (0..40).collect::<Vec<_>>());
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
        // sweep is ~0.5 s. Never evict to the cold list so the queue stays
        // a single shard (the historical worst case), and use a large batch
        // so the sweep really is one long poll run.
        let cfg = ExecutorConfig {
            cold_after: u32::MAX,
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
        ex.join().unwrap();
        let dt = t.elapsed();
        // Bound: STOP_CHECK_POLLS polls at 500 µs each, plus generous CI
        // slack — but far below the ~0.5 s full sweep.
        assert!(
            dt < Duration::from_millis(250),
            "teardown took {dt:?} (full sweep would be ~512 ms)"
        );
    }

    /// A quiescent pool parks (observable via the parks counter) instead of
    /// spinning, and still completes promptly when a machine wakes up.
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
        ex.join().unwrap(); // machines drain to Done; workers exit on live == 0
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "resume after wake took {:?}",
            t.elapsed()
        );
    }

    /// Machines that go idle long enough are evicted to the cold list and
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
        // the gate — the cold list must be re-polled so they all finish.
        std::thread::sleep(Duration::from_millis(50));
        gate.store(true, Ordering::SeqCst);
        ex.join().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 32);
        assert_eq!(hits.load(Ordering::Relaxed), 3_000_000);
    }

    // --- Wake-driven sleepers: CK machines over real FIFOs. Every pool
    // below parks for 10 s, so no pass can lean on the park timeout. ---

    use crate::transport::ck::{CkMachine, Route};
    use crate::transport::link::tests::accept;
    use crate::transport::link::{fifo, LinkSend, LinkTx};
    use crate::transport::Burst;
    use crossbeam::channel::{bounded, Receiver};
    use smi_wire::{NetworkPacket, PacketOp};

    fn patient() -> ExecutorConfig {
        ExecutorConfig {
            park_min: Duration::from_secs(10),
            park_max: Duration::from_secs(10),
            ..ExecutorConfig::default()
        }
    }

    fn tagged(tag: u8) -> Burst {
        vec![NetworkPacket::new(0, tag, 0, PacketOp::Send).into()]
    }

    /// A one-input, one-output CK machine of `rank` sleeping on `wake`.
    fn forwarder(
        rank: usize,
        wake: Wake,
        input: crate::transport::link::LinkRx,
        output: LinkTx,
    ) -> CkMachine {
        CkMachine::new(
            rank,
            wake,
            vec![input],
            vec![output],
            Box::new(|_| Route::Output(0)),
            8,
            8,
            Arc::default(),
            Arc::default(),
            Default::default(),
        )
    }

    /// feed → machine of rank 0 → machine of rank 1 → `out`: on two workers
    /// the middle FIFO crosses them.
    fn chain(out_depth: usize) -> (LinkTx, Vec<Box<dyn Pollable>>, Receiver<Burst>) {
        let (w0, w1) = (Wake::default(), Wake::default());
        let (feed, in0) = fifo(4, &w0);
        let (mid, in1) = fifo(4, &w1);
        let (out_tx, out_rx) = bounded(out_depth);
        let m0 = forwarder(0, w0, in0, mid);
        let m1 = forwarder(1, w1, in1, Box::new(out_tx));
        (feed, vec![Box::new(m0), Box::new(m1)], out_rx)
    }

    fn feed_all(feed: &mut LinkTx, tags: std::ops::Range<u8>, mut pause: impl FnMut()) {
        for tag in tags {
            let mut burst = tagged(tag);
            loop {
                match feed.offer(&mut burst) {
                    LinkSend::Accepted => break,
                    LinkSend::Full => {}
                    LinkSend::Closed => panic!("machine gone"),
                }
                std::thread::yield_now();
            }
            pause();
        }
    }

    fn expect_tags(out: &Receiver<Burst>, tags: std::ops::Range<u8>, what: &str) {
        for tag in tags {
            let burst = out
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{what}: burst {tag} never arrived"));
            assert_eq!(burst[0].header().dst, tag, "{what}: out of order");
        }
    }

    /// Wait, up to 5 s, for something another thread is about to make true.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(5), "never: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// No lost wake-up: a producer thread pushes bursts, pausing at random
    /// — not at all (the push races the poll), tens of microseconds (the
    /// machine sleeps, its worker still spins) or a millisecond (the worker
    /// parks) — and every burst comes out, in order.
    #[test]
    fn no_push_into_a_sleeping_machine_is_lost() {
        const N: u8 = 8;
        for round in 0..200u64 {
            for workers in [1, 2] {
                let (mut feed, items, out) = chain(N as usize);
                let stop = Arc::new(AtomicBool::new(false));
                let ex = ShardedExecutor::spawn_with(items, workers, stop, patient());
                let producer = std::thread::spawn(move || {
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(round * 2 + workers as u64);
                    feed_all(&mut feed, 0..N, || match rng.gen_range(0..8u32) {
                        0 => std::thread::sleep(Duration::from_millis(1)),
                        1..=3 => {
                            let until =
                                Instant::now() + Duration::from_micros(rng.gen_range(5..80));
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        }
                        _ => {}
                    });
                    // `feed` drops here: the close ends both machines.
                });
                expect_tags(&out, 0..N, &format!("round {round}, {workers} worker(s)"));
                producer.join().unwrap();
                ex.join().unwrap();
            }
        }
    }

    /// Dropping the last sender wakes a sleeping machine on a parked worker,
    /// and it finishes.
    #[test]
    fn closing_the_input_wakes_the_machine_to_finish() {
        for workers in [1, 2] {
            let (feed, items, _out) = chain(1);
            let stop = Arc::new(AtomicBool::new(false));
            let ex = ShardedExecutor::spawn_with(items, workers, stop, patient());
            eventually("all parked", || {
                ex.worker_stats().iter().all(|s| s.parks > 0)
            });
            let t = Instant::now();
            drop(feed);
            ex.join().unwrap(); // both machines Done, the second via the first's drop
            assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        }
    }

    /// A poll that moves a burst and drains the input files the machine
    /// asleep at once: one poll per burst, no confirming idle poll.
    #[test]
    fn drained_machine_sleeps_without_another_poll() {
        let wake = Wake::default();
        let (mut feed, input) = fifo(4, &wake);
        let (out_tx, out) = bounded(4);
        let items: Vec<Box<dyn Pollable>> =
            vec![Box::new(forwarder(0, wake, input, Box::new(out_tx)))];
        accept(&mut feed, tagged(0));
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn_with(items, 1, stop, patient());
        for tag in 0..2u8 {
            if tag > 0 {
                accept(&mut feed, tagged(tag));
            }
            expect_tags(&out, tag..tag + 1, "drained");
            eventually("parked", || ex.worker_stats()[0].parks > tag as u64);
            let stats = ex.worker_stats()[0];
            assert_eq!(
                (stats.polls, stats.progress),
                (tag as u64 + 1, tag as u64 + 1)
            );
        }
        drop(feed);
        ex.join().unwrap();
    }

    /// A machine holding a burst its output refused is waiting for room,
    /// which nobody raises a handle for: it must stay runnable.
    #[test]
    fn back_pressured_machine_does_not_sleep() {
        const N: u8 = 20;
        for workers in [1, 2] {
            let (mut feed, items, out) = chain(1);
            let stop = Arc::new(AtomicBool::new(false));
            let ex = ShardedExecutor::spawn_with(items, workers, stop, patient());
            let producer = std::thread::spawn(move || feed_all(&mut feed, 0..N, || {}));
            for tag in 0..N {
                std::thread::sleep(Duration::from_millis(1)); // the slow consumer
                expect_tags(&out, tag..tag + 1, &format!("{workers} worker(s)"));
            }
            producer.join().unwrap();
            ex.join().unwrap();
        }
    }

    /// A stolen machine that goes idle is handed home, filed there, and the
    /// next raise wakes it there.
    #[test]
    fn stolen_sleeper_is_filed_and_woken_at_home() {
        /// Logs which worker made each progressing (or draining) poll.
        struct Spy(CkMachine, Arc<Mutex<Vec<usize>>>);
        impl Pollable for Spy {
            fn poll(&mut self) -> Step {
                let step = self.0.poll();
                if matches!(step, Step::Progress | Step::Drained) {
                    let name = std::thread::current().name().unwrap_or("").to_owned();
                    let worker = name.trim_start_matches("smi-worker-").parse().unwrap();
                    self.1.lock().push(worker);
                }
                step
            }
            fn home_rank(&self) -> Option<usize> {
                self.0.home_rank()
            }
            fn wake(&self) -> Option<&Wake> {
                self.0.wake()
            }
        }
        /// Holds its worker hostage until the spy has been polled elsewhere.
        struct Hostage(Arc<Mutex<Vec<usize>>>);
        impl Pollable for Hostage {
            fn poll(&mut self) -> Step {
                let t = Instant::now();
                while self.0.lock().is_empty() && t.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Step::Done
            }
            fn home_rank(&self) -> Option<usize> {
                Some(0)
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let wake = Wake::default();
        let (mut feed, input) = fifo(4, &wake);
        let (out_tx, out) = bounded(4);
        let spy = Spy(forwarder(0, wake, input, Box::new(out_tx)), log.clone());
        // Worker 0 is seeded [hostage, spy] and, with a thief about, takes
        // only the hostage; worker 1's own machine finishes at once, so it
        // steals the spy, which has a burst waiting.
        let items: Vec<Box<dyn Pollable>> = vec![
            Box::new(Hostage(log.clone())),
            Box::new(spy),
            Box::new(Homed(
                1,
                Countdown {
                    left: 1,
                    hits: Arc::default(),
                },
            )),
        ];
        accept(&mut feed, tagged(0));
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn_with(items, 2, stop, patient());
        expect_tags(&out, 0..1, "stolen");
        eventually("the thief moves the first burst", || *log.lock() == [1]);
        // Quiescence: the thief aged it out and sent it home (or home, free
        // again, stole it back), home filed it, and both parked — for 10 s,
        // so the state holds.
        let polls = || ex.worker_stats().iter().map(|s| s.polls).sum::<u64>();
        eventually("quiescence", || {
            let before = polls();
            std::thread::sleep(Duration::from_millis(30));
            polls() == before && ex.worker_stats().iter().all(|s| s.parks > 0)
        });
        accept(&mut feed, tagged(1));
        expect_tags(&out, 1..2, "woken at home");
        eventually("home moves the second burst", || *log.lock() == [1, 0]);
        drop(feed);
        let stats = ex.join().unwrap();
        assert!(stats[1].steals >= 1, "{stats:?}");
    }
}
