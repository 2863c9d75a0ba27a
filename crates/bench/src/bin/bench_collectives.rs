//! Collective throughput benchmark of the functional message plane:
//! broadcast and reduce rates vs. rank count and routing scheme, emitted as
//! `BENCH_collectives.json` so every CI run leaves a perf data point for
//! the poll-mode collective runtime.
//!
//! Series (element rates are root-stream rates: `count / seconds`):
//!
//! * `bcast_thread_elem` / `reduce_thread_elem` — the paper-style
//!   per-element `bcast`/`reduce` API on thread-per-rank execution at
//!   8 ranks (the pre-bulk hot path).
//! * `bcast_thread_slice` / `reduce_thread_slice` — the bulk
//!   `bcast_slice`/`reduce_slice` APIs on thread-per-rank execution at
//!   8 ranks, isolating the bulk-framing win.
//! * `bcast_task_linear` / `bcast_task_tree` and `reduce_task_linear` /
//!   `reduce_task_tree` — poll-mode opens (`open_*_channel_poll`) and
//!   `try_*` driving on the cooperative task plane, swept over rank counts
//!   under both [`CollectiveScheme`]s. The linear series is the paper's
//!   root-serialized shape (falls off past ~16 ranks on a bus); the tree
//!   series routes through interior forwarders/combiners along the hop
//!   tree — on the bus, the chain leaving the root.
//!
//! Usage: `bench_collectives [--quick|--smoke | --full] [--out PATH]`
//! (`--smoke` is an alias for `--quick`.)

use std::time::Instant;

use smi::env::SmiCtx;
use smi::prelude::*;

/// One measured point.
struct Point {
    series: String,
    ranks: usize,
    elems: u64,
    seconds: f64,
    melem_per_s: f64,
    threads_spawned: usize,
}

fn coll_metas(ranks: usize) -> Vec<ProgramMeta> {
    (0..ranks)
        .map(|_| {
            ProgramMeta::new()
                .with(OpSpec::bcast(0, Datatype::Int))
                .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        })
        .collect()
}

/// Thread-per-rank bcast+reduce; `bulk` picks slice vs per-element calls.
/// Returns (bcast_seconds, reduce_seconds, threads_spawned).
fn run_threads(ranks: usize, n: u64, bulk: bool) -> (f64, f64, usize) {
    let topo = Topology::bus(ranks);
    type Prog = Box<dyn FnOnce(SmiCtx) -> (f64, f64) + Send>;
    let programs: Vec<Prog> = (0..ranks)
        .map(|_| {
            let b: Prog = Box::new(move |ctx| {
                let comm = ctx.world();
                let root = 0usize;
                let is_root = comm.rank() == root;
                // --- bcast ---
                let mut buf: Vec<i32> = if is_root {
                    (0..n as i32).collect()
                } else {
                    vec![0; n as usize]
                };
                let mut ch = ctx.open_bcast_channel::<i32>(n, 0, root, &comm).unwrap();
                let t = Instant::now();
                if bulk {
                    ch.bcast_slice(&mut buf).unwrap();
                } else {
                    for v in buf.iter_mut() {
                        ch.bcast(v).unwrap();
                    }
                }
                let bcast_dt = t.elapsed().as_secs_f64();
                drop(ch);
                if !is_root {
                    assert!(
                        buf.iter().enumerate().all(|(i, &v)| v == i as i32),
                        "bcast data corrupted"
                    );
                }
                // --- reduce ---
                let contrib: Vec<i32> = (0..n as i32).collect();
                let mut out = vec![0i32; n as usize];
                let mut ch = ctx.open_reduce_channel::<i32>(n, 1, root, &comm).unwrap();
                let t = Instant::now();
                if bulk {
                    ch.reduce_slice(&contrib, &mut out).unwrap();
                } else {
                    for (i, v) in contrib.iter().enumerate() {
                        if let Some(x) = ch.reduce(v).unwrap() {
                            out[i] = x;
                        }
                    }
                }
                let reduce_dt = t.elapsed().as_secs_f64();
                drop(ch);
                if is_root {
                    let k = ranks as i32;
                    assert!(
                        out.iter().enumerate().all(|(i, &v)| v == k * i as i32),
                        "reduce data corrupted"
                    );
                }
                (bcast_dt, reduce_dt)
            });
            b
        })
        .collect();
    let report =
        run_mpmd(&topo, coll_metas(ranks), programs, RuntimeParams::default()).expect("launch");
    // The collective completes when its slowest member completes.
    let bcast = report
        .results
        .iter()
        .map(|&(b, _)| b)
        .fold(0.0f64, f64::max);
    let reduce = report
        .results
        .iter()
        .map(|&(_, r)| r)
        .fold(0.0f64, f64::max);
    (bcast, reduce, report.threads_spawned)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Bcast,
    Reduce,
}

enum Phase {
    Bcast {
        ch: BcastChannel<i32>,
        buf: Vec<i32>,
        off: usize,
    },
    Reduce {
        ch: ReduceChannel<i32>,
        contrib: Vec<i32>,
        out: Vec<i32>,
        off: usize,
    },
    Finished,
}

struct CollTask {
    ctx: SmiCtx,
    phase: Phase,
}

impl RankTask for CollTask {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let phase = std::mem::replace(&mut self.phase, Phase::Finished);
        match phase {
            Phase::Bcast {
                mut ch,
                mut buf,
                mut off,
            } => {
                let moved = ch.try_bcast_slice(&mut buf[off..])?;
                off += moved;
                if off == buf.len() && ch.poll()? == CollectiveState::Done {
                    drop(ch);
                    if self.ctx.rank() != 0 && !buf.iter().enumerate().all(|(i, &v)| v == i as i32)
                    {
                        return Err(SmiError::ProtocolViolation {
                            detail: "bcast data corrupted".into(),
                        });
                    }
                    self.phase = Phase::Finished;
                    return Ok(TaskStatus::Done);
                }
                self.phase = Phase::Bcast { ch, buf, off };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            Phase::Reduce {
                mut ch,
                contrib,
                mut out,
                mut off,
            } => {
                let moved = ch.try_reduce_slice(&contrib[off..], &mut out[off..])?;
                off += moved;
                if off == contrib.len() && ch.poll()? == CollectiveState::Done {
                    drop(ch);
                    let k = self.ctx.num_ranks() as i32;
                    if self.ctx.rank() == 0
                        && !out.iter().enumerate().all(|(i, &v)| v == k * i as i32)
                    {
                        return Err(SmiError::ProtocolViolation {
                            detail: "reduce data corrupted".into(),
                        });
                    }
                    self.phase = Phase::Finished;
                    return Ok(TaskStatus::Done);
                }
                self.phase = Phase::Reduce {
                    ch,
                    contrib,
                    out,
                    off,
                };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            Phase::Finished => Ok(TaskStatus::Done),
        }
    }
}

/// Cooperative-task run of one collective under one scheme; returns the
/// wall-clock of the whole run plus threads spawned.
fn run_tasks(ranks: usize, n: u64, which: Which, scheme: CollectiveScheme) -> (f64, usize) {
    let topo = Topology::bus(ranks);
    let params = RuntimeParams {
        collective_scheme: scheme,
        ..Default::default()
    };
    let factories: Vec<TaskFactory> = (0..ranks)
        .map(|r| {
            let f: TaskFactory = Box::new(move |ctx: SmiCtx| {
                let comm = ctx.world();
                let phase = match which {
                    Which::Bcast => {
                        let ch = ctx.open_bcast_channel_poll::<i32>(n, 0, 0, &comm)?;
                        let buf: Vec<i32> = if r == 0 {
                            (0..n as i32).collect()
                        } else {
                            vec![0; n as usize]
                        };
                        Phase::Bcast { ch, buf, off: 0 }
                    }
                    Which::Reduce => {
                        let ch = ctx.open_reduce_channel_poll::<i32>(n, 1, 0, &comm)?;
                        let contrib: Vec<i32> = (0..n as i32).collect();
                        let out = vec![0i32; n as usize];
                        Phase::Reduce {
                            ch,
                            contrib,
                            out,
                            off: 0,
                        }
                    }
                };
                Ok(Box::new(CollTask { ctx, phase }) as Box<dyn RankTask>)
            });
            f
        })
        .collect();
    let t = Instant::now();
    let report = run_mpmd_tasks(&topo, coll_metas(ranks), factories, params).expect("launch");
    let dt = t.elapsed().as_secs_f64();
    for (r, res) in report.results.iter().enumerate() {
        if let Err(e) = res {
            panic!("rank {r} failed: {e}");
        }
    }
    (dt, report.threads_spawned)
}

fn main() {
    let mut effort = smi_bench::Effort::from_args();
    let mut out_path = String::from("BENCH_collectives.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--smoke" => effort = smi_bench::Effort::Quick,
            _ => {}
        }
    }
    smi_bench::banner(
        "bench_collectives — bcast/reduce throughput vs. rank count and scheme",
        "poll-mode collectives (rendezvous-free handshake, bulk APIs, tree routing)",
    );

    let (rank_sweep, n): (Vec<usize>, u64) = match effort {
        smi_bench::Effort::Quick => (vec![4, 8, 16, 32], 1 << 14),
        smi_bench::Effort::Normal => (vec![4, 8, 16, 32, 64], 1 << 17),
        smi_bench::Effort::Full => (vec![4, 8, 16, 32, 64, 128], 1 << 19),
    };

    let mut points: Vec<Point> = Vec::new();
    println!(
        "{:<20} {:>6} {:>10} {:>10} {:>9} {:>8}",
        "series", "ranks", "elems", "seconds", "Melem/s", "threads"
    );
    let mut record = |series: String, ranks: usize, elems: u64, dt: f64, threads: usize| {
        let melem = elems as f64 / dt / 1e6;
        println!(
            "{:<20} {:>6} {:>10} {:>10.4} {:>9.2} {:>8}",
            series, ranks, elems, dt, melem, threads
        );
        points.push(Point {
            series,
            ranks,
            elems,
            seconds: dt,
            melem_per_s: melem,
            threads_spawned: threads,
        });
    };

    // Thread plane at 8 ranks: per-element (the before) vs bulk slices.
    for (series_b, series_r, bulk) in [
        ("bcast_thread_elem", "reduce_thread_elem", false),
        ("bcast_thread_slice", "reduce_thread_slice", true),
    ] {
        let (bcast_dt, reduce_dt, threads) = run_threads(8, n, bulk);
        record(series_b.into(), 8, n, bcast_dt, threads);
        record(series_r.into(), 8, n, reduce_dt, threads);
    }

    // Task plane: poll-mode opens + try-slices, swept over rank counts,
    // under both routing schemes.
    for (which, name) in [(Which::Bcast, "bcast"), (Which::Reduce, "reduce")] {
        for (scheme, suffix) in [
            (CollectiveScheme::Linear, "linear"),
            (CollectiveScheme::Tree, "tree"),
        ] {
            for &ranks in &rank_sweep {
                let (dt, threads) = run_tasks(ranks, n, which, scheme);
                record(format!("{name}_task_{suffix}"), ranks, n, dt, threads);
            }
        }
    }

    // Headline: tree vs linear at the largest common rank count.
    let speedup = |name: &str, ranks: usize| -> Option<f64> {
        let rate = |series: String| {
            points
                .iter()
                .find(|p| p.series == series && p.ranks == ranks)
                .map(|p| p.melem_per_s)
        };
        Some(rate(format!("{name}_task_tree"))? / rate(format!("{name}_task_linear"))?)
    };
    let headline_ranks = rank_sweep
        .iter()
        .copied()
        .find(|&r| r == 32)
        .unwrap_or(*rank_sweep.last().expect("non-empty sweep"));
    for name in ["bcast", "reduce"] {
        if let Some(s) = speedup(name, headline_ranks) {
            println!("tree/linear speedup @ {headline_ranks} ranks ({name}): {s:.2}x");
        }
    }

    // Hand-rolled JSON: flat, stable, diff-friendly.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"benchmark\": \"bench_collectives\",\n  \"effort\": \"{:?}\",\n  \"available_parallelism\": {},\n",
        effort,
        std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"series\": \"{}\", \"ranks\": {}, \"elems\": {}, \"seconds\": {:.6}, \"melem_per_s\": {:.3}, \"threads_spawned\": {}}}{}\n",
            p.series,
            p.ranks,
            p.elems,
            p.seconds,
            p.melem_per_s,
            p.threads_spawned,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write JSON");
    println!("\nwrote {out_path}");
}
