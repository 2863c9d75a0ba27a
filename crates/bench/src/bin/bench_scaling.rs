//! Scaling benchmark of the functional message plane: p2p throughput vs.
//! rank count and executor worker count on the rank-local executor,
//! emitted as `BENCH_scaling.json` so every CI run leaves a perf data point.
//!
//! Series:
//!
//! * `task_bulk` — disjoint neighbour pairs (`2i → 2i+1`) on a bus, rank
//!   programs as cooperative tasks (`run_mpmd_tasks`) using the bulk
//!   `try_push_slice`/`try_pop_slice` APIs, default executor settings.
//! * `task_bulk_sweep` — the same workload swept over executor worker
//!   counts (1 → available_parallelism, powers of two) at 8/64/256 ranks.
//! * `skewed_steal` — a deliberately skewed cluster: one hot pair streams a
//!   large payload while every other pair sits gated (Pending) until the
//!   hot transfer completes, then moves a token payload. The executor
//!   moves the gated machines to per-worker cold lists and lets the worker
//!   that owns no hot rank steal part of the hot pipeline.
//! * `threads_per_element` / `threads_bulk` — the paper-style blocking API
//!   on thread-per-rank execution at 8 ranks, isolating the batching win
//!   from the executor win.
//!
//! A timing-plane reference (`fabric_pairs`, cycle-accurate model) is
//! recorded for 8 ranks for cross-plane context.
//!
//! Usage: `bench_scaling [--quick|--smoke | --full] [--out PATH]`
//! (`--smoke` is an alias for `--quick`.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smi::env::SmiCtx;
use smi::prelude::*;
use smi_fabric::bench_api::p2p_pairs;
use smi_fabric::params::FabricParams;

/// One measured point.
struct Point {
    series: &'static str,
    ranks: usize,
    workers: usize,
    elems_per_pair: u64,
    seconds: f64,
    melem_per_s: f64,
    threads_spawned: usize,
    steals: u64,
    parks: u64,
}

struct BulkSend {
    ch: Option<SendChannel<i32>>,
    data: Vec<i32>,
    off: usize,
}

impl RankTask for BulkSend {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open while pending");
        let before = self.off;
        if self.off < self.data.len() {
            self.off += ch.try_push_slice(&self.data[self.off..])?;
        }
        if self.off == self.data.len() && ch.try_flush()? && ch.fully_sent() {
            self.ch = None; // close: return the endpoint resource
            return Ok(TaskStatus::Done);
        }
        Ok(if self.off > before {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

struct BulkRecv {
    ch: Option<RecvChannel<i32>>,
    buf: Vec<i32>,
    filled: usize,
}

impl RankTask for BulkRecv {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open while pending");
        let moved = ch.try_pop_slice(&mut self.buf[self.filled..])?;
        self.filled += moved;
        if self.filled == self.buf.len() {
            // Verify the stream before declaring success.
            for (i, &v) in self.buf.iter().enumerate() {
                if v != i as i32 {
                    return Err(SmiError::ProtocolViolation {
                        detail: format!("element {i} corrupted: {v}"),
                    });
                }
            }
            self.ch = None;
            return Ok(TaskStatus::Done);
        }
        Ok(if moved > 0 {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

/// Holds the inner task in `Pending` until the gate opens; used to model
/// ranks whose work only arrives late in the program.
struct GatedTask {
    inner: Box<dyn RankTask>,
    gate: Arc<AtomicBool>,
}

impl RankTask for GatedTask {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        if !self.gate.load(Ordering::Acquire) {
            return Ok(TaskStatus::Pending);
        }
        self.inner.poll()
    }
}

/// Opens the gate when the inner task completes.
struct GateOpener {
    inner: Box<dyn RankTask>,
    gate: Arc<AtomicBool>,
}

impl RankTask for GateOpener {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let status = self.inner.poll()?;
        if status == TaskStatus::Done {
            self.gate.store(true, Ordering::Release);
        }
        Ok(status)
    }
}

fn pair_metas(ranks: usize) -> Vec<ProgramMeta> {
    (0..ranks)
        .map(|r| {
            if r % 2 == 0 {
                ProgramMeta::new().with(OpSpec::send(0, Datatype::Int))
            } else {
                ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int))
            }
        })
        .collect()
}

fn send_factory(n: u64, dst: usize) -> TaskFactory {
    Box::new(move |ctx: SmiCtx| {
        let ch = ctx.open_send_channel::<i32>(n, dst, 0)?;
        Ok(Box::new(BulkSend {
            ch: Some(ch),
            data: (0..n as i32).collect(),
            off: 0,
        }) as Box<dyn RankTask>)
    })
}

fn recv_factory(n: u64, src: usize) -> TaskFactory {
    Box::new(move |ctx: SmiCtx| {
        let ch = ctx.open_recv_channel::<i32>(n, src, 0)?;
        Ok(Box::new(BulkRecv {
            ch: Some(ch),
            buf: vec![0; n as usize],
            filled: 0,
        }) as Box<dyn RankTask>)
    })
}

/// Aggregate executor counters out of a run report.
fn exec_counters(report: &RunReport<Result<(), SmiError>>) -> (u64, u64) {
    let steals = report.worker_stats.iter().map(|s| s.steals).sum();
    let parks = report.worker_stats.iter().map(|s| s.parks).sum();
    (steals, parks)
}

/// Cooperative-task bulk run over disjoint pairs with explicit executor
/// settings: returns (seconds, threads_spawned, steals, parks).
fn run_task_bulk(ranks: usize, n: u64, params: RuntimeParams) -> (f64, usize, u64, u64) {
    let topo = Topology::bus(ranks);
    let factories: Vec<TaskFactory> = (0..ranks)
        .map(|r| {
            if r % 2 == 0 {
                send_factory(n, r + 1)
            } else {
                recv_factory(n, r - 1)
            }
        })
        .collect();
    let t = Instant::now();
    let report = run_mpmd_tasks(&topo, pair_metas(ranks), factories, params).expect("launch");
    let dt = t.elapsed().as_secs_f64();
    for (r, res) in report.results.iter().enumerate() {
        if let Err(e) = res {
            panic!("rank {r} failed: {e}");
        }
    }
    assert_eq!(report.transport.2, 0, "unroutable packets");
    let (steals, parks) = exec_counters(&report);
    (dt, report.threads_spawned, steals, parks)
}

/// Skewed-cluster run: pair (0,1) streams `hot_n` elements; every other
/// pair is gated behind the hot transfer and then moves `cold_n` elements.
/// Returns (seconds, threads_spawned, steals, parks).
fn run_skewed(
    ranks: usize,
    hot_n: u64,
    cold_n: u64,
    params: RuntimeParams,
) -> (f64, usize, u64, u64) {
    assert!(ranks >= 4 && ranks.is_multiple_of(2));
    let topo = Topology::bus(ranks);
    let gate = Arc::new(AtomicBool::new(false));
    let factories: Vec<TaskFactory> = (0..ranks)
        .map(|r| {
            let gate = gate.clone();
            let f: TaskFactory = match r {
                0 => send_factory(hot_n, 1),
                1 => Box::new(move |ctx: SmiCtx| {
                    let inner = recv_factory(hot_n, 0)(ctx)?;
                    Ok(Box::new(GateOpener { inner, gate }) as Box<dyn RankTask>)
                }),
                _ => {
                    let inner_f = if r % 2 == 0 {
                        send_factory(cold_n, r + 1)
                    } else {
                        recv_factory(cold_n, r - 1)
                    };
                    Box::new(move |ctx: SmiCtx| {
                        let inner = inner_f(ctx)?;
                        Ok(Box::new(GatedTask { inner, gate }) as Box<dyn RankTask>)
                    })
                }
            };
            f
        })
        .collect();
    let t = Instant::now();
    let report = run_mpmd_tasks(&topo, pair_metas(ranks), factories, params).expect("launch");
    let dt = t.elapsed().as_secs_f64();
    for (r, res) in report.results.iter().enumerate() {
        if let Err(e) = res {
            panic!("rank {r} failed: {e}");
        }
    }
    let (steals, parks) = exec_counters(&report);
    (dt, report.threads_spawned, steals, parks)
}

/// Thread-per-rank run; `bulk` picks slice vs per-element channel calls.
fn run_threads(ranks: usize, n: u64, bulk: bool) -> (f64, usize) {
    let topo = Topology::bus(ranks);
    type Prog = Box<dyn FnOnce(SmiCtx) -> bool + Send>;
    let programs: Vec<Prog> = (0..ranks)
        .map(|r| {
            let b: Prog = if r % 2 == 0 {
                Box::new(move |ctx| {
                    let mut ch = ctx.open_send_channel::<i32>(n, r + 1, 0).unwrap();
                    if bulk {
                        let data: Vec<i32> = (0..n as i32).collect();
                        ch.push_slice(&data).unwrap();
                    } else {
                        for i in 0..n as i32 {
                            ch.push(&i).unwrap();
                        }
                    }
                    true
                })
            } else {
                Box::new(move |ctx| {
                    let mut ch = ctx.open_recv_channel::<i32>(n, r - 1, 0).unwrap();
                    if bulk {
                        let mut buf = vec![0i32; n as usize];
                        ch.pop_slice(&mut buf).unwrap();
                        buf.iter().enumerate().all(|(i, &v)| v == i as i32)
                    } else {
                        (0..n as i32).all(|i| ch.pop().unwrap() == i)
                    }
                })
            };
            b
        })
        .collect();
    let t = Instant::now();
    let report =
        run_mpmd(&topo, pair_metas(ranks), programs, RuntimeParams::default()).expect("launch");
    let dt = t.elapsed().as_secs_f64();
    assert!(report.results.iter().all(|&ok| ok), "data corrupted");
    (dt, report.threads_spawned)
}

/// Executor params for a sweep point.
fn sweep_params(workers: usize) -> RuntimeParams {
    RuntimeParams {
        transport_workers: workers,
        ..Default::default()
    }
}

/// Best-of-N measurement: the first run of a large shape pays allocator
/// warmup and page-fault costs that have nothing to do with the scheduler
/// under test, so compared series (sweep, skewed) take the fastest of two
/// runs.
fn best_of<F: FnMut() -> (f64, usize, u64, u64)>(reps: usize, mut f: F) -> (f64, usize, u64, u64) {
    let mut best = f();
    for _ in 1..reps {
        let r = f();
        if r.0 < best.0 {
            best = r;
        }
    }
    best
}

fn print_point(p: &Point) {
    println!(
        "{:<18} {:>6} {:>7} {:>12} {:>10.3} {:>9.2} {:>8} {:>8} {:>7}",
        p.series,
        p.ranks,
        p.workers,
        p.elems_per_pair,
        p.seconds,
        p.melem_per_s,
        p.threads_spawned,
        p.steals,
        p.parks
    );
}

fn main() {
    let mut effort = smi_bench::Effort::from_args();
    let mut out_path = String::from("BENCH_scaling.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--smoke" => effort = smi_bench::Effort::Quick,
            _ => {}
        }
    }
    smi_bench::banner(
        "bench_scaling — functional-plane p2p throughput vs. ranks and workers",
        "runtime scaling (work-stealing executor + burst batching)",
    );

    let ap = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (rank_sweep, total_elems): (Vec<usize>, u64) = match effort {
        smi_bench::Effort::Quick => (vec![2, 8, 32, 64], 512 << 10),
        smi_bench::Effort::Normal => (vec![2, 4, 8, 16, 32, 64], 8 << 20),
        smi_bench::Effort::Full => (vec![2, 4, 8, 16, 32, 64, 128], 32 << 20),
    };

    let mut points: Vec<Point> = Vec::new();
    println!(
        "{:<18} {:>6} {:>7} {:>12} {:>10} {:>9} {:>8} {:>8} {:>7}",
        "series",
        "ranks",
        "workers",
        "elems/pair",
        "seconds",
        "Melem/s",
        "threads",
        "steals",
        "parks"
    );

    // --- default-executor rank sweep (historical series) ---
    for &ranks in &rank_sweep {
        let pairs = (ranks / 2) as u64;
        let n = (total_elems / pairs).max(1024);
        let (dt, threads, steals, parks) = run_task_bulk(ranks, n, RuntimeParams::default());
        let p = Point {
            series: "task_bulk",
            ranks,
            workers: RuntimeParams::default().resolved_workers(),
            elems_per_pair: n,
            seconds: dt,
            melem_per_s: (n * pairs) as f64 / dt / 1e6,
            threads_spawned: threads,
            steals,
            parks,
        };
        print_point(&p);
        points.push(p);
    }

    // --- worker-count sweep at fixed rank counts ---
    // Worker counts: 1, powers of two up to available_parallelism, and
    // available_parallelism itself.
    let mut worker_sweep: Vec<usize> = vec![1];
    let mut w = 2;
    while w < ap {
        worker_sweep.push(w);
        w *= 2;
    }
    if ap > 1 {
        worker_sweep.push(ap);
    }
    let sweep_elems = match effort {
        smi_bench::Effort::Quick => 256u64 << 10,
        smi_bench::Effort::Normal => 4 << 20,
        smi_bench::Effort::Full => 16 << 20,
    };
    for &ranks in &[8usize, 64, 256] {
        let pairs = (ranks / 2) as u64;
        let n = (sweep_elems / pairs).max(1024);
        for &workers in &worker_sweep {
            let (dt, threads, steals, parks) =
                best_of(2, || run_task_bulk(ranks, n, sweep_params(workers)));
            let p = Point {
                series: "task_bulk_sweep",
                ranks,
                workers,
                elems_per_pair: n,
                seconds: dt,
                melem_per_s: (n * pairs) as f64 / dt / 1e6,
                threads_spawned: threads,
                steals,
                parks,
            };
            print_point(&p);
            points.push(p);
        }
    }

    // --- skewed cluster: one hot pair among many gated cold pairs ---
    // The executor moves the gated machines to cold lists, and with >1
    // worker the idle worker steals part of the hot pipeline.
    let skew_ranks = 64usize;
    let (hot_n, cold_n) = match effort {
        smi_bench::Effort::Quick => (256u64 << 10, 1024u64),
        smi_bench::Effort::Normal => (2 << 20, 4096),
        smi_bench::Effort::Full => (8 << 20, 4096),
    };
    let total = hot_n + (skew_ranks as u64 / 2 - 1) * cold_n;
    let mut skew_workers: Vec<usize> = vec![1];
    if ap > 1 {
        skew_workers.push(2.min(ap));
    }
    for &workers in &skew_workers {
        let (dt, threads, steals, parks) = best_of(2, || {
            run_skewed(skew_ranks, hot_n, cold_n, sweep_params(workers))
        });
        let p = Point {
            series: "skewed_steal",
            ranks: skew_ranks,
            workers,
            elems_per_pair: hot_n,
            seconds: dt,
            melem_per_s: total as f64 / dt / 1e6,
            threads_spawned: threads,
            steals,
            parks,
        };
        print_point(&p);
        points.push(p);
    }

    // --- blocking-plane reference at 8 ranks ---
    for (series, bulk) in [("threads_per_element", false), ("threads_bulk", true)] {
        let ranks = 8usize;
        let n = (total_elems / 4).max(1024);
        let (dt, threads) = run_threads(ranks, n, bulk);
        let p = Point {
            series,
            ranks,
            workers: RuntimeParams::default().resolved_workers(),
            elems_per_pair: n,
            seconds: dt,
            melem_per_s: (n * 4) as f64 / dt / 1e6,
            threads_spawned: threads,
            steals: 0,
            parks: 0,
        };
        print_point(&p);
        points.push(p);
    }

    // Timing-plane reference at 8 ranks (cycle-accurate model, not wall
    // clock): aggregate Gbit/s over 4 disjoint flows.
    let fabric_n = match effort {
        smi_bench::Effort::Quick => 50_000u64,
        _ => 400_000,
    };
    let fr = p2p_pairs(
        &Topology::bus(8),
        fabric_n,
        Datatype::Int,
        &FabricParams::default(),
    )
    .expect("fabric pairs");
    assert_eq!(fr.errors, 0);
    println!(
        "fabric_pairs (model)    8 {fabric_n:>12} {:>10.1}us {:>6.1} Gbit/s aggregate",
        fr.time_us, fr.aggregate_gbit_s
    );

    // Hand-rolled JSON: flat, stable, diff-friendly.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"benchmark\": \"bench_scaling\",\n  \"effort\": \"{:?}\",\n  \"available_parallelism\": {ap},\n",
        effort
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"series\": \"{}\", \"ranks\": {}, \"workers\": {}, \"elems_per_pair\": {}, \"seconds\": {:.6}, \"melem_per_s\": {:.3}, \"threads_spawned\": {}, \"steals\": {}, \"parks\": {}}}{}\n",
            p.series,
            p.ranks,
            p.workers,
            p.elems_per_pair,
            p.seconds,
            p.melem_per_s,
            p.threads_spawned,
            p.steals,
            p.parks,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"fabric_pairs_8rank\": {{\"elems_per_pair\": {}, \"time_us\": {:.3}, \"aggregate_gbit_s\": {:.3}}}\n",
        fabric_n, fr.time_us, fr.aggregate_gbit_s
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write JSON");
    println!("\nwrote {out_path}");
}
