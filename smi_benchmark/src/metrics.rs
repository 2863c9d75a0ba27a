//! The metric registry (the names, units and bounds `BENCHMARK.json`
//! repeats) and the measurement of one workload: cold repetition, timed
//! repetitions, launch-only repetitions, and — for the per-layer numbers —
//! traced repetitions and standalone calls into single layers.

use std::sync::Arc;
use std::time::Instant;

use crate::api::{self, Fabric};
use crate::stats::{median, percentile_if_supported, supported};
use crate::trace::{self, now_ns, CallStat, Kind, Span, TraceCfg, KINDS, NO_PARENT};
use crate::workloads::{run_rep, Outcome, Payload, Rep, Shape, Spec, SPECS};

/// A metric's definition. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before it counts as a regression;
/// per-layer metrics have none.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [Def; 5] = [
    def("throughput_melem_s", "Melem/s", "higher", 0.25),
    def("msg_p50_us", "us", "lower", 0.25),
    def("setup_s", "s", "lower", 0.25),
    def("run_s", "s", "lower", 0.25),
    def("peak_rss_mib", "MiB", "lower", 0.25),
];

pub const PER_LAYER: [Def; 50] = [
    def("topology.route_compute_s", "s", "lower", 0.0),
    def("topology.route_share_of_setup", "ratio", "lower", 0.0),
    def("env.setup_s", "s", "lower", 0.0),
    def("env.setup_cold_s", "s", "lower", 0.0),
    def("env.wire_s", "s", "lower", 0.0),
    def("env.stream_s", "s", "lower", 0.0),
    def("env.teardown_s", "s", "lower", 0.0),
    def("env.threads_spawned", "count", "lower", 0.0),
    def("proc.socket_bootstrap_s", "s", "lower", 0.0),
    def("wire.frame_ns_per_elem", "ns", "lower", 0.0),
    def("wire.deframe_ns_per_elem", "ns", "lower", 0.0),
    def("channel.open_us_p50", "us", "lower", 0.0),
    def("channel.push_ns_per_elem", "ns", "lower", 0.0),
    def("channel.pop_ns_per_elem", "ns", "lower", 0.0),
    def("channel.push_busy_share", "ratio", "higher", 0.0),
    def("channel.pop_busy_share", "ratio", "higher", 0.0),
    def("channel.try_empty_ratio", "ratio", "lower", 0.0),
    def("channel.msg_wait_share", "ratio", "lower", 0.0),
    def("collectives.open_us_p50", "us", "lower", 0.0),
    def("collectives.call_ns_per_elem", "ns", "lower", 0.0),
    def("collectives.try_empty_ratio", "ratio", "lower", 0.0),
    def("collectives.root_busy_share", "ratio", "higher", 0.0),
    def("collectives.leaf_busy_share", "ratio", "higher", 0.0),
    def("ck.cks_forwards_per_pkt", "count", "lower", 0.0),
    def("ck.ckr_forwards_per_pkt", "count", "lower", 0.0),
    def("ck.unroutable", "count", "lower", 0.0),
    def("payload.copies_per_elem_byte", "ratio", "lower", 0.0),
    def("executor.polls_per_kelem", "count", "lower", 0.0),
    def("executor.progress_ratio", "ratio", "higher", 0.0),
    def("executor.steals", "count", "higher", 0.0),
    def("executor.parks", "count", "lower", 0.0),
    def("executor.progress_imbalance", "ratio", "lower", 0.0),
    def("executor.scaling_efficiency", "ratio", "higher", 0.0),
    def("socket.send_syscalls_per_melem", "count", "lower", 0.0),
    def("socket.bytes_per_send_syscall", "B", "higher", 0.0),
    def("socket.bytes_per_recv_syscall", "B", "higher", 0.0),
    def("socket.wire_bytes_per_payload_byte", "ratio", "lower", 0.0),
    def("socket.pool_hit_ratio", "ratio", "higher", 0.0),
    def("socket.corked_frames_per_msg", "count", "higher", 0.0),
    def("socket.reconnects_healed", "count", "lower", 0.0),
    def("lat.p99_us", "us", "lower", 0.0),
    def("lat.p999_us", "us", "lower", 0.0),
    def("lat.max_us", "us", "lower", 0.0),
    def("lat.samples", "count", "higher", 0.0),
    def("rep.throughput_min", "Melem/s", "higher", 0.0),
    def("rep.throughput_max", "Melem/s", "higher", 0.0),
    def("trace.overhead_ratio", "ratio", "lower", 0.0),
    def("trace.spans", "count", "lower", 0.0),
    def("trace.sample_every", "count", "lower", 0.0),
    def("failed_ops_ratio", "ratio", "lower", 0.0),
];

/// How one workload is measured.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// How long the repetitions that feed the metrics run in total.
    pub seconds: f64,
    /// Produce the per-layer metrics (and a trace file) instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// `msgs ÷ 50`, one repetition of everything: a seconds-long check
    /// that every workload runs and verifies.
    pub smoke: bool,
}

/// One workload's result: the metrics of the mode that ran, in registry
/// order, plus the operation counts of every repetition made.
pub struct Measured {
    /// Messages consumers should have verified, over every repetition made.
    pub attempted: u64,
    /// The ones they did verify.
    pub ok: u64,
    pub unroutable: u64,
    /// `(name, value)` in registry order.
    pub values: Vec<(&'static str, f64)>,
    /// The traced repetition's spans as a trace file, when `trace` was on.
    pub trace_json: Option<String>,
    pub notes: Vec<String>,
}

impl Measured {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok.min(self.attempted)
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.unroutable == 0
    }

    /// Count a set of repetitions' operations and keep their errors.
    fn absorb(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.ok += t.sum(Rep::ok) as u64;
        self.unroutable += t.sum(|r| r.counts.unroutable) as u64;
        for e in t.reps.iter().flat_map(|r| &r.errors) {
            self.notes.push(format!("error: {e}"));
        }
    }
}

/// Launch-only repetitions come in batches of at least `LAUNCHES`, going on
/// until `LAUNCH_BATCH_SECONDS` have passed. `setup_s` takes a batch after a
/// timed repetition whenever the batches so far took less than
/// `LAUNCH_SHARE` of the run: spread over the whole run they see what the
/// machine does in all of it, where one half-second block of them read
/// 150 or 225 us from one run to the next.
const LAUNCHES: usize = 2;
const LAUNCH_BATCH_SECONDS: f64 = 0.03;
const LAUNCH_SHARE: f64 = 0.05;
/// `proc.socket_bootstrap_s` compares two blocks of launch-only repetitions:
/// at least this many, for this long.
const BOOTSTRAP_LAUNCHES: usize = 15;
const BOOTSTRAP_SECONDS: f64 = 0.5;
/// Fewest timed repetitions a run reports a median over.
const MIN_REPS: usize = 3;
/// Most spans one trace file holds; messages are sampled 1-in-k to fit.
const SPAN_BUDGET: usize = 100_000;

/// Sums and running medians over a set of repetitions.
struct Tally {
    reps: Vec<Rep>,
    attempted: u64,
}

impl Tally {
    fn med(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    fn sum(&self, f: impl Fn(&Rep) -> u64) -> f64 {
        self.reps.iter().map(f).sum::<u64>() as f64
    }

    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.reps.iter().flat_map(|r| r.outcomes.iter())
    }

    /// Per-kind call counters summed over every task.
    fn calls(&self) -> [CallStat; KINDS] {
        let mut total = [CallStat::default(); KINDS];
        for o in self.outcomes() {
            for (t, s) in total.iter_mut().zip(&o.probe.stats) {
                t.add(s);
            }
        }
        total
    }

    /// Time inside layer calls over task lifetime, for the tasks `keep`
    /// selects and the call kinds in `kinds`.
    fn busy_share(&self, kinds: &[Kind], keep: impl Fn(&Outcome) -> bool) -> f64 {
        let (mut busy, mut life) = (0u64, 0u64);
        for o in self.outcomes().filter(|o| keep(o)) {
            busy += kinds
                .iter()
                .map(|&k| o.probe.stats[k as usize].busy_ns)
                .sum::<u64>();
            life += o.end_ns - o.begin_ns;
        }
        ratio(busy as f64, life as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one run works with: the workload, its seeded payload, and the scale
/// (full size, or the smoke check's).
struct Plan<'a> {
    spec: &'a Spec,
    payload: Arc<Payload>,
    msgs: u32,
    min_reps: usize,
    /// Budget of the repetitions that feed the metrics (none in the smoke
    /// check, which makes the fewest repetitions of everything).
    seconds: f64,
    /// Whether repetitions keep their message-time samples (the per-layer
    /// tail diagnostics pool them) or only each repetition's percentiles.
    keep_samples: bool,
}

impl Plan<'_> {
    /// Run repetitions of `msgs` messages of `spec` until `seconds` have
    /// passed (at least `min_reps`), each on a freshly launched fabric.
    fn repeat(
        &self,
        spec: &Spec,
        fabric: Fabric,
        msgs: u32,
        trace: Option<TraceCfg>,
        seconds: f64,
        min_reps: usize,
    ) -> Tally {
        let started = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
            reps.push(run_rep(
                spec,
                fabric,
                msgs,
                &self.payload,
                trace,
                self.keep_samples,
            ));
        }
        Tally {
            attempted: spec.attempted(msgs) * reps.len() as u64,
            reps,
        }
    }

    /// Setup phases of a batch of launch-only repetitions on `fabric`: at
    /// least `min`, going on until `seconds` (or the run's own budget, if
    /// that is less) have passed. The repetitions themselves are dropped, so
    /// a batch leaves nothing behind that a later repetition's peak RSS
    /// would count.
    fn launch_setups(&self, fabric: Fabric, min: usize, seconds: f64) -> Vec<f64> {
        let seconds = seconds.min(self.seconds);
        let started = Instant::now();
        let mut setups = Vec::new();
        while setups.len() < min || started.elapsed().as_secs_f64() < seconds {
            setups.push(run_rep(self.spec, fabric, 0, &self.payload, None, false).setup_s);
        }
        setups
    }

    /// The timed repetitions (full size, until `seconds` have passed, at
    /// least `min_reps`) with batches of launch-only repetitions in between,
    /// and the setup phases of all of them.
    fn timed_with_launches(&self) -> (Tally, Vec<f64>) {
        let spec = self.spec;
        let started = Instant::now();
        let (mut reps, mut setups) = (Vec::new(), Vec::new());
        let mut launching = 0.0;
        while reps.len() < self.min_reps || started.elapsed().as_secs_f64() < self.seconds {
            let rep = run_rep(
                spec,
                spec.fabric,
                self.msgs,
                &self.payload,
                None,
                self.keep_samples,
            );
            setups.push(rep.setup_s);
            reps.push(rep);
            if launching <= LAUNCH_SHARE * started.elapsed().as_secs_f64() {
                let batch = Instant::now();
                setups.extend(self.launch_setups(spec.fabric, LAUNCHES, LAUNCH_BATCH_SECONDS));
                launching += batch.elapsed().as_secs_f64();
            }
        }
        let attempted = spec.attempted(self.msgs) * reps.len() as u64;
        (Tally { reps, attempted }, setups)
    }
}

/// Measure `spec` and return the metrics of the requested mode.
pub fn measure(spec: &Spec, opts: Opts) -> Measured {
    let run_start = now_ns();
    let payload = Arc::new(Payload::generate(opts.seed, spec.elems));
    let plan = if opts.smoke {
        Plan {
            spec,
            payload,
            msgs: (spec.msgs / 50).max(1),
            min_reps: 1,
            seconds: 0.0,
            keep_samples: opts.trace,
        }
    } else {
        Plan {
            spec,
            payload,
            msgs: spec.msgs,
            min_reps: MIN_REPS,
            // A traced run splits its time between untraced and traced
            // repetitions.
            seconds: opts.seconds * if opts.trace { 0.5 } else { 1.0 },
            keep_samples: opts.trace,
        }
    };

    // The first launch of the process pays page faults and allocator growth
    // the later ones do not; it is reported separately and never pooled.
    let cold = plan.repeat(spec, spec.fabric, (plan.msgs / 10).max(1), None, 0.0, 1);
    let (timed, setups) = plan.timed_with_launches();
    let setup_s = median(&setups);

    let mut m = Measured {
        attempted: 0,
        ok: 0,
        unroutable: 0,
        values: Vec::new(),
        trace_json: None,
        notes: Vec::new(),
    };
    m.absorb(&cold);
    m.absorb(&timed);

    // Percentiles are taken per repetition and the median over repetitions
    // reported: a burst of interference then spoils one repetition's tail,
    // not the pooled tail of all of them.
    let fewest = timed.reps.iter().map(|r| r.lat_n).min().unwrap_or(0);
    if opts.trace && !opts.smoke && !supported(fewest, 0.99) {
        m.notes.push(format!(
            "lat.p99_us rests on {fewest} samples in a repetition; fewer than 10 lie beyond it"
        ));
    }

    m.values = if opts.trace {
        per_layer(&plan, run_start, &cold, &timed, setup_s, &mut m)
    } else {
        vec![
            ("throughput_melem_s", timed.med(Rep::throughput_melem_s)),
            ("msg_p50_us", timed.med(|r| us(r.lat_p50_ns))),
            ("setup_s", setup_s),
            ("run_s", timed.med(|r| r.run_s)),
            ("peak_rss_mib", timed.med(|r| r.peak_rss_mib)),
        ]
    };
    m
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The per-layer metrics: counters of the untraced repetitions already made
/// (`timed`), times from traced repetitions made here, and standalone calls
/// into single layers. Leaves the trace file's contents in `m`.
fn per_layer(
    plan: &Plan,
    run_start: u64,
    cold: &Tally,
    timed: &Tally,
    setup_s: f64,
    m: &mut Measured,
) -> Vec<(&'static str, f64)> {
    let spec = plan.spec;
    let mut lat: Vec<u64> = timed.reps.iter().flat_map(|r| &r.lat).copied().collect();
    lat.sort_unstable();

    // Sample messages so the traced repetition's spans fit the budget: the
    // untraced counters say how many calls a repetition makes.
    let per_rank_spans = |o: &Outcome| {
        let s = &o.probe.stats;
        1 + s[Kind::Open as usize].calls + s.iter().map(|c| c.calls).sum::<u64>()
    };
    let first = &timed.reps[0];
    let total: u64 = first.outcomes.iter().map(per_rank_spans).sum();
    let busiest: u64 = first.outcomes.iter().map(per_rank_spans).max().unwrap_or(1);
    let sample_every = total.div_ceil(SPAN_BUDGET as u64).max(1) as u32;
    let cfg = TraceCfg {
        sample_every,
        cap: (busiest / u64::from(sample_every)) as usize * 2 + 64,
    };
    let traced = plan.repeat(spec, spec.fabric, plan.msgs, Some(cfg), plan.seconds, 1);
    m.absorb(&traced);

    // Standalone calls into single layers.
    let mut route_spans = Vec::new();
    let route_s: Vec<f64> = (0..6)
        .map(|_| {
            let t = now_ns();
            if let Err(e) = api::route_compute(spec.fabric.ranks) {
                m.notes.push(format!("error: route_compute: {e}"));
            }
            let end = now_ns();
            route_spans.push((t, end));
            (end - t) as f64 / 1e9
        })
        .skip(1) // the first call warms the allocator
        .collect();
    let route_compute_s = median(&route_s);
    let (frame_ns, deframe_ns) = wire_ns_per_elem(spec, &plan.payload);
    let socket_bootstrap_s = if spec.fabric.split_uds {
        let inmem = Fabric {
            split_uds: false,
            ..spec.fabric
        };
        let block = |f| median(&plan.launch_setups(f, BOOTSTRAP_LAUNCHES, BOOTSTRAP_SECONDS));
        block(spec.fabric) - block(inmem)
    } else {
        0.0
    };
    let scaling_efficiency = if spec.name == "p2p_w2" {
        let w1 = SPECS
            .iter()
            .find(|s| s.name == "p2p_w1")
            .expect("p2p_w1 is a workload");
        let base = plan.repeat(w1, w1.fabric, plan.msgs, None, 0.0, plan.min_reps.min(2));
        m.absorb(&base);
        ratio(
            timed.med(Rep::throughput_melem_s),
            2.0 * base.med(Rep::throughput_melem_s),
        )
    } else {
        0.0
    };

    // Counters of the untraced repetitions.
    let elems = timed.sum(Rep::elems);
    let msgs_ok = timed.sum(Rep::ok);
    let pkts = msgs_ok * spec.elems.div_ceil(api::ELEMS_PER_PACKET) as f64;
    let workers = timed.reps[0].counts.workers.len();
    let worker_sum = |f: fn(&(u64, u64, u64, u64)) -> u64| -> Vec<f64> {
        (0..workers)
            .map(|w| timed.sum(|r| r.counts.workers.get(w).map_or(0, f)))
            .collect()
    };
    let polls: f64 = worker_sum(|w| w.0).iter().sum();
    let progress = worker_sum(|w| w.1);
    let steals: f64 = worker_sum(|w| w.2).iter().sum();
    let parks: f64 = worker_sum(|w| w.3).iter().sum();
    let nreps = timed.reps.len() as f64;
    let calls = timed.calls();
    let empty_ratio = |kinds: &[Kind]| {
        let (e, c) = kinds.iter().fold((0, 0), |(e, c), &k| {
            (e + calls[k as usize].empty, c + calls[k as usize].calls)
        });
        ratio(e as f64, c as f64)
    };

    // Times of the traced repetitions.
    let tcalls = traced.calls();
    let ns_per_elem = |kinds: &[Kind]| {
        let (b, e) = kinds.iter().fold((0, 0), |(b, e), &k| {
            (b + tcalls[k as usize].busy_ns, e + tcalls[k as usize].elems)
        });
        ratio(b as f64, e as f64)
    };
    let did = |k: Kind| move |o: &Outcome| o.probe.stats[k as usize].calls > 0;
    let collective = matches!(spec.shape, Shape::Bcast | Shape::Reduce);
    const COLL_CALLS: [Kind; 4] = [Kind::Open, Kind::Bcast, Kind::Reduce, Kind::Poll];
    let mut open_us = Vec::new();
    let (mut msg_self, mut msg_total) = (0u64, 0u64);
    for o in traced.outcomes() {
        let selfs = trace::self_times(&o.probe.spans);
        for (s, own) in o.probe.spans.iter().zip(selfs) {
            match s.kind {
                Kind::Open if !collective => open_us.push(us(s.end_ns - s.start_ns)),
                Kind::Opening => open_us.push(us(s.end_ns - s.start_ns)),
                Kind::Msg => {
                    msg_self += own;
                    msg_total += s.end_ns - s.start_ns;
                }
                _ => {}
            }
        }
    }
    let open_us_p50 = median(&open_us);
    let pick = |is_collective: bool, v: f64| if collective == is_collective { v } else { 0.0 };

    let last = traced.reps.last().expect("at least one traced repetition");
    let (spans, dropped) = assemble_trace(run_start, last, &route_spans);
    m.trace_json = Some(trace::to_json(spec.name, sample_every, dropped, &spans));
    if dropped > 0 {
        m.notes
            .push(format!("{dropped} spans did not fit the trace buffer"));
    }

    let thr: Vec<f64> = timed.reps.iter().map(Rep::throughput_melem_s).collect();
    vec![
        ("topology.route_compute_s", route_compute_s),
        (
            "topology.route_share_of_setup",
            ratio(route_compute_s, setup_s),
        ),
        ("env.setup_s", setup_s),
        ("env.setup_cold_s", cold.reps[0].setup_s),
        ("env.wire_s", setup_s - route_compute_s),
        ("env.stream_s", timed.med(|r| r.stream_s)),
        ("env.teardown_s", timed.med(|r| r.teardown_s)),
        (
            "env.threads_spawned",
            timed.reps[0].counts.threads_spawned as f64,
        ),
        ("proc.socket_bootstrap_s", socket_bootstrap_s),
        ("wire.frame_ns_per_elem", frame_ns),
        ("wire.deframe_ns_per_elem", deframe_ns),
        ("channel.open_us_p50", pick(false, open_us_p50)),
        ("channel.push_ns_per_elem", ns_per_elem(&[Kind::Push])),
        ("channel.pop_ns_per_elem", ns_per_elem(&[Kind::Pop])),
        (
            "channel.push_busy_share",
            traced.busy_share(&[Kind::Push], did(Kind::Push)),
        ),
        (
            "channel.pop_busy_share",
            traced.busy_share(&[Kind::Pop], did(Kind::Pop)),
        ),
        (
            "channel.try_empty_ratio",
            empty_ratio(&[Kind::Push, Kind::Pop]),
        ),
        (
            "channel.msg_wait_share",
            pick(false, ratio(msg_self as f64, msg_total as f64)),
        ),
        ("collectives.open_us_p50", pick(true, open_us_p50)),
        (
            "collectives.call_ns_per_elem",
            ns_per_elem(&[Kind::Bcast, Kind::Reduce]),
        ),
        (
            "collectives.try_empty_ratio",
            empty_ratio(&[Kind::Bcast, Kind::Reduce]),
        ),
        (
            "collectives.root_busy_share",
            pick(true, traced.busy_share(&COLL_CALLS, |o| o.rank == 0)),
        ),
        (
            "collectives.leaf_busy_share",
            pick(true, traced.busy_share(&COLL_CALLS, |o| o.rank != 0)),
        ),
        (
            "ck.cks_forwards_per_pkt",
            ratio(timed.sum(|r| r.counts.cks_forwards), pkts),
        ),
        (
            "ck.ckr_forwards_per_pkt",
            ratio(timed.sum(|r| r.counts.ckr_forwards), pkts),
        ),
        ("ck.unroutable", m.unroutable as f64),
        (
            "payload.copies_per_elem_byte",
            ratio(timed.sum(|r| r.counts.payload_copy_bytes), elems * 4.0),
        ),
        ("executor.polls_per_kelem", ratio(polls, elems / 1e3)),
        (
            "executor.progress_ratio",
            ratio(progress.iter().sum(), polls),
        ),
        ("executor.steals", steals / nreps),
        ("executor.parks", parks / nreps),
        (
            "executor.progress_imbalance",
            ratio(
                progress.iter().copied().fold(0.0, f64::max),
                progress.iter().copied().fold(f64::MAX, f64::min).max(1.0),
            ),
        ),
        ("executor.scaling_efficiency", scaling_efficiency),
        (
            "socket.send_syscalls_per_melem",
            ratio(timed.sum(|r| r.counts.send_syscalls), elems / 1e6),
        ),
        (
            "socket.bytes_per_send_syscall",
            ratio(
                timed.sum(|r| r.counts.send_bytes),
                timed.sum(|r| r.counts.send_syscalls),
            ),
        ),
        (
            "socket.bytes_per_recv_syscall",
            ratio(
                timed.sum(|r| r.counts.recv_bytes),
                timed.sum(|r| r.counts.recv_syscalls),
            ),
        ),
        (
            "socket.wire_bytes_per_payload_byte",
            ratio(timed.sum(|r| r.counts.send_bytes), elems * 4.0),
        ),
        (
            "socket.pool_hit_ratio",
            ratio(
                timed.sum(|r| r.counts.pool_hits),
                timed.sum(|r| r.counts.pool_hits + r.counts.pool_misses),
            ),
        ),
        (
            "socket.corked_frames_per_msg",
            ratio(timed.sum(|r| r.counts.corked_frames), msgs_ok),
        ),
        (
            "socket.reconnects_healed",
            timed.sum(|r| r.counts.reconnects_healed),
        ),
        ("lat.p99_us", timed.med(|r| us(r.lat_p99_ns))),
        ("lat.p999_us", us(percentile_if_supported(&lat, 0.999))),
        ("lat.max_us", us(lat.last().copied().unwrap_or(0))),
        ("lat.samples", lat.len() as f64),
        (
            "rep.throughput_min",
            thr.iter().copied().fold(f64::MAX, f64::min),
        ),
        (
            "rep.throughput_max",
            thr.iter().copied().fold(0.0, f64::max),
        ),
        (
            "trace.overhead_ratio",
            ratio(
                timed.med(Rep::throughput_melem_s),
                traced.med(Rep::throughput_melem_s),
            ),
        ),
        ("trace.spans", spans.len() as f64),
        ("trace.sample_every", f64::from(sample_every)),
        (
            "failed_ops_ratio",
            ratio(m.failed() as f64, m.attempted as f64),
        ),
    ]
}

/// `smi_wire` alone: nanoseconds per element to frame and to deframe one
/// message of the workload's size (median of 5 rounds of ≥ 1 Mi elements).
fn wire_ns_per_elem(spec: &Spec, payload: &Payload) -> (f64, f64) {
    let data = payload.message(spec.elems);
    let mut out = vec![0i32; data.len()];
    let per_round = (1usize << 20).div_ceil(data.len());
    let (mut frame, mut deframe) = (Vec::new(), Vec::new());
    for round in 0..6 {
        let (mut f, mut d, mut n) = (0u64, 0u64, 0usize);
        for _ in 0..per_round {
            let (fns, dns, filled) = api::frame_deframe(data, &mut out);
            f += fns;
            d += dns;
            n += filled;
        }
        std::hint::black_box(&out);
        if round > 0 {
            frame.push(f as f64 / n as f64);
            deframe.push(d as f64 / n as f64);
        }
    }
    (median(&frame), median(&deframe))
}

/// One span list for the trace file: run → repetition → rank tasks (each
/// with its messages and calls), plus the standalone route computations
/// under the run.
fn assemble_trace(run_start: u64, rep: &Rep, route_spans: &[(u64, u64)]) -> (Vec<Span>, u64) {
    let root = |kind, start_ns, end_ns, parent| Span {
        kind,
        start_ns,
        end_ns,
        parent,
        id: 0,
    };
    let begin = rep.outcomes.iter().map(|o| o.begin_ns).min().unwrap_or(0);
    let end = rep.outcomes.iter().map(|o| o.end_ns).max().unwrap_or(0);
    let mut spans = vec![
        root(Kind::Run, run_start, now_ns(), NO_PARENT),
        root(Kind::Rep, begin, end, 0),
    ];
    spans.extend(
        route_spans
            .iter()
            .map(|&(s, e)| root(Kind::RouteCompute, s, e, 0)),
    );
    let mut dropped = 0;
    for o in &rep.outcomes {
        let base = spans.len() as u32;
        dropped += o.probe.dropped;
        spans.extend(o.probe.spans.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                1
            } else {
                s.parent + base
            },
            // Tag the task span with its rank.
            id: if s.kind == Kind::Task {
                o.rank as u64
            } else {
                s.id
            },
            ..*s
        }));
    }
    (spans, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_verifies_every_workload() {
        for spec in &SPECS {
            for trace in [false, true] {
                let m = measure(
                    spec,
                    Opts {
                        seed: 7,
                        seconds: 0.0,
                        trace,
                        smoke: true,
                    },
                );
                assert!(m.correct(), "{} trace={trace}: {:?}", spec.name, m.notes);
                assert!(m.attempted > 0);
                let defs: &[Def] = if trace { &PER_LAYER } else { &END_TO_END };
                assert!(
                    m.values.iter().map(|v| v.0).eq(defs.iter().map(|d| d.name)),
                    "{}: metrics are not the registry's, in its order",
                    spec.name
                );
                assert!(m.values.iter().all(|v| v.1.is_finite()), "{}", spec.name);
                assert_eq!(m.trace_json.is_some(), trace);
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (
            Payload::generate(3, 100),
            Payload::generate(3, 100),
            Payload::generate(4, 100),
        );
        assert_eq!(a.message(100), b.message(100));
        assert_ne!(a.message(100), c.message(100));
    }
}
