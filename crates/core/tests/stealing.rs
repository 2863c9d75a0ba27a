//! Work-stealing executor correctness: collective results must be
//! identical no matter how many workers drive the transport machines, on
//! both execution planes.
//!
//! The executor only schedules `Pollable` machines — it must never change
//! what they compute. These tests pin that down by running the same
//! collective program at 1/2/4/8 workers and asserting bit-identical
//! per-rank results against the single-worker run.

use proptest::prelude::*;
use smi::env::SmiCtx;
use smi::prelude::*;

/// Per-rank outcome of the four-collective program: `(bcast received,
/// reduce results [root only], scatter slice, gathered stream [root only])`.
type CollOutcome = (Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>);

/// Run all four collectives (bcast, reduce, scatter, gather) on the thread
/// plane with an explicit executor worker count and return one outcome per
/// rank plus the executor's per-worker counters.
fn all_collectives(
    ranks: usize,
    root: usize,
    count: u64,
    scheme: CollectiveScheme,
    workers: usize,
) -> (Vec<CollOutcome>, Vec<WorkerStats>) {
    let params = RuntimeParams {
        collective_scheme: scheme,
        transport_workers: workers,
        ..Default::default()
    };
    let topo = Topology::bus(ranks);
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        .with(OpSpec::scatter(2, Datatype::Int))
        .with(OpSpec::gather(3, Datatype::Int));
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let rank = comm.rank();
            let n = comm.size();
            let is_root = rank == root;
            let mut bcast: Vec<i32> = if is_root {
                (0..count as i32).map(|i| i * 11 - 5).collect()
            } else {
                vec![0; count as usize]
            };
            let mut ch = ctx
                .open_bcast_channel::<i32>(count, 0, root, &comm)
                .unwrap();
            ch.bcast_slice(&mut bcast).unwrap();
            drop(ch);
            let contrib: Vec<i32> = (0..count as i32).map(|i| i * 7 + rank as i32).collect();
            let mut reduce = vec![0i32; count as usize];
            let mut ch = ctx
                .open_reduce_channel::<i32>(count, 1, root, &comm)
                .unwrap();
            ch.reduce_slice(&contrib, &mut reduce).unwrap();
            drop(ch);
            if !is_root {
                reduce.clear();
            }
            let mut ch = ctx
                .open_scatter_channel::<i32>(count, 2, root, &comm)
                .unwrap();
            if is_root {
                let src: Vec<i32> = (0..(count * n as u64) as i32).map(|i| i * 3 - 2).collect();
                ch.push_slice(&src).unwrap();
            }
            let mut mine = vec![0i32; count as usize];
            ch.pop_slice(&mut mine).unwrap();
            drop(ch);
            let mut ch = ctx
                .open_gather_channel::<i32>(count, 3, root, &comm)
                .unwrap();
            let own: Vec<i32> = (0..count as i32).map(|i| rank as i32 * 500 + i).collect();
            ch.push_slice(&own).unwrap();
            let gathered = if is_root {
                let mut all = vec![0i32; (count * n as u64) as usize];
                ch.pop_slice(&mut all).unwrap();
                all
            } else {
                Vec::new()
            };
            (bcast, reduce, mine, gathered)
        },
        params,
    )
    .unwrap();
    (report.results, report.worker_stats)
}

/// Verify one `all_collectives` outcome against the expected data.
fn check_outcomes(results: &[CollOutcome], root: usize, count: u64) {
    let n = results.len();
    let want_bcast: Vec<i32> = (0..count as i32).map(|i| i * 11 - 5).collect();
    let want_reduce: Vec<i32> = (0..count as i32)
        .map(|i| (0..n as i32).map(|r| i * 7 + r).sum())
        .collect();
    let want_gather: Vec<i32> = (0..n as i32)
        .flat_map(|r| (0..count as i32).map(move |i| r * 500 + i))
        .collect();
    for (rank, (bcast, reduce, mine, gathered)) in results.iter().enumerate() {
        assert_eq!(bcast, &want_bcast, "bcast rank {rank}");
        let want_scatter: Vec<i32> = (0..count as i32)
            .map(|i| (rank as i32 * count as i32 + i) * 3 - 2)
            .collect();
        assert_eq!(mine, &want_scatter, "scatter rank {rank}");
        if rank == root {
            assert_eq!(reduce, &want_reduce, "reduce root");
            assert_eq!(gathered, &want_gather, "gather root");
        } else {
            assert!(reduce.is_empty() && gathered.is_empty());
        }
    }
}

#[test]
fn collectives_identical_across_worker_counts() {
    // The acceptance shape: all four collectives, both routing schemes,
    // at 1/2/4/8 executor workers. Every multi-worker run must match the
    // single-worker run element for element.
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        let (baseline, _) = all_collectives(9, 2, 17, scheme, 1);
        check_outcomes(&baseline, 2, 17);
        for workers in [2, 4, 8] {
            let (got, stats) = all_collectives(9, 2, 17, scheme, workers);
            assert_eq!(
                got, baseline,
                "results diverged at {workers} workers ({scheme:?})"
            );
            assert!(
                !stats.is_empty() && stats.len() <= workers,
                "expected 1..={workers} worker stat rows, got {}",
                stats.len()
            );
            let polls: u64 = stats.iter().map(|s| s.polls).sum();
            let progress: u64 = stats.iter().map(|s| s.progress).sum();
            assert!(polls > 0, "no polls recorded at {workers} workers");
            assert!(progress > 0, "no progress recorded at {workers} workers");
        }
    }
}

#[test]
fn tight_buffers_survive_multi_worker_stealing() {
    // Tiny FIFOs maximise backpressure and idle polls, so machines bounce
    // between run queues and cold lists while work migrates between
    // workers. Results must still be exact.
    for workers in [2, 4] {
        let params = RuntimeParams {
            transport_workers: workers,
            ..RuntimeParams::tight()
        };
        let topo = Topology::bus(5);
        let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int));
        let report = run_spmd(
            &topo,
            meta,
            move |ctx: SmiCtx| {
                let comm = ctx.world();
                let mut buf: Vec<i32> = if comm.rank() == 0 {
                    (0..64).map(|i| i ^ 0x2a).collect()
                } else {
                    vec![0; 64]
                };
                let mut ch = ctx.open_bcast_channel::<i32>(64, 0, 0, &comm).unwrap();
                ch.bcast_slice(&mut buf).unwrap();
                buf
            },
            params,
        )
        .unwrap();
        let want: Vec<i32> = (0..64).map(|i| i ^ 0x2a).collect();
        for (rank, got) in report.results.iter().enumerate() {
            assert_eq!(got, &want, "rank {rank} at {workers} workers");
        }
    }
}

// ---------------------------------------------------------------------------
// Task plane: rank machines themselves migrate between workers
// ---------------------------------------------------------------------------

/// A bcast-then-gather rank task driven entirely by `try_*` polling, so the
/// rank machines (not just the transport machines) live on the executor
/// and are subject to stealing and cold-list eviction.
type SweepOut = std::sync::Arc<parking_lot::Mutex<Vec<(Vec<i32>, Vec<i32>)>>>;

struct SweepTask {
    ctx: SmiCtx,
    n: u64,
    root: usize,
    phase: SweepPhase,
    out: SweepOut,
}

enum SweepPhase {
    Bcast {
        ch: Box<BcastChannel<i32>>,
        buf: Vec<i32>,
        off: usize,
    },
    Gather {
        ch: Box<GatherChannel<i32>>,
        own: Vec<i32>,
        push_off: usize,
        all: Vec<i32>,
        pop_off: usize,
    },
    Finished,
}

impl RankTask for SweepTask {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let rank = self.ctx.rank();
        let phase = std::mem::replace(&mut self.phase, SweepPhase::Finished);
        match phase {
            SweepPhase::Bcast {
                mut ch,
                mut buf,
                mut off,
            } => {
                let moved = ch.try_bcast_slice(&mut buf[off..])?;
                off += moved;
                if off == buf.len() && ch.poll()? == CollectiveState::Done {
                    drop(ch);
                    self.out.lock()[rank].0 = buf;
                    let comm = self.ctx.world();
                    let ch = self
                        .ctx
                        .open_gather_channel_poll::<i32>(self.n, 1, self.root, &comm)?;
                    let own: Vec<i32> = (0..self.n as i32).map(|i| rank as i32 * 91 + i).collect();
                    let all = if rank == self.root {
                        vec![0i32; (self.n as usize) * comm.size()]
                    } else {
                        Vec::new()
                    };
                    self.phase = SweepPhase::Gather {
                        ch: Box::new(ch),
                        own,
                        push_off: 0,
                        all,
                        pop_off: 0,
                    };
                    return Ok(TaskStatus::Progress);
                }
                self.phase = SweepPhase::Bcast { ch, buf, off };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            SweepPhase::Gather {
                mut ch,
                own,
                mut push_off,
                mut all,
                mut pop_off,
            } => {
                let mut moved = ch.try_push_slice(&own[push_off..])?;
                push_off += moved;
                if rank == self.root {
                    let popped = ch.try_pop_slice(&mut all[pop_off..])?;
                    pop_off += popped;
                    moved += popped;
                }
                let done = push_off == own.len()
                    && pop_off == all.len()
                    && ch.poll()? == CollectiveState::Done;
                if done {
                    drop(ch);
                    self.out.lock()[rank].1 = all;
                    self.phase = SweepPhase::Finished;
                    return Ok(TaskStatus::Done);
                }
                self.phase = SweepPhase::Gather {
                    ch,
                    own,
                    push_off,
                    all,
                    pop_off,
                };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            SweepPhase::Finished => Ok(TaskStatus::Done),
        }
    }
}

/// Run the task-plane bcast+gather program at a given worker count.
fn task_plane_run(ranks: usize, n: u64, workers: usize) -> Vec<(Vec<i32>, Vec<i32>)> {
    let root = 0usize;
    let params = RuntimeParams {
        transport_workers: workers,
        ..Default::default()
    };
    let topo = Topology::bus(ranks);
    let metas: Vec<ProgramMeta> = (0..ranks)
        .map(|_| {
            ProgramMeta::new()
                .with(OpSpec::bcast(0, Datatype::Int))
                .with(OpSpec::gather(1, Datatype::Int))
        })
        .collect();
    let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![
        (Vec::new(), Vec::new());
        ranks
    ]));
    let factories: Vec<TaskFactory> = (0..ranks)
        .map(|r| {
            let out = out.clone();
            let f: TaskFactory = Box::new(move |ctx: SmiCtx| {
                let comm = ctx.world();
                let ch = ctx.open_bcast_channel_poll::<i32>(n, 0, root, &comm)?;
                let buf: Vec<i32> = if r == root {
                    (0..n as i32).map(|i| i * 9 - 4).collect()
                } else {
                    vec![0; n as usize]
                };
                Ok(Box::new(SweepTask {
                    ctx,
                    n,
                    root,
                    phase: SweepPhase::Bcast {
                        ch: Box::new(ch),
                        buf,
                        off: 0,
                    },
                    out,
                }) as Box<dyn RankTask>)
            });
            f
        })
        .collect();
    let report = run_mpmd_tasks(&topo, metas, factories, params).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r} at {workers} workers: {res:?}");
    }
    let out = out.lock();
    out.clone()
}

#[test]
fn task_plane_identical_across_worker_counts() {
    // On the task plane every rank is a cooperative machine on the
    // executor, so worker count changes which OS thread polls which rank —
    // and must change nothing else.
    let ranks = 12usize;
    let n = 96u64;
    let baseline = task_plane_run(ranks, n, 1);
    let want_bcast: Vec<i32> = (0..n as i32).map(|i| i * 9 - 4).collect();
    let want_gather: Vec<i32> = (0..ranks as i32)
        .flat_map(|r| (0..n as i32).map(move |i| r * 91 + i))
        .collect();
    for (r, (bcast, gather)) in baseline.iter().enumerate() {
        assert_eq!(bcast, &want_bcast, "bcast rank {r}");
        if r == 0 {
            assert_eq!(gather, &want_gather, "gather root");
        } else {
            assert!(gather.is_empty());
        }
    }
    for workers in [2, 4, 8] {
        let got = task_plane_run(ranks, n, workers);
        assert_eq!(got, baseline, "task plane diverged at {workers} workers");
    }
}

// ---------------------------------------------------------------------------
// Rank-local placement: balanced pairs keep both workers busy
// ---------------------------------------------------------------------------

/// Streams `data` to the next rank with the bulk `try_*` calls.
struct PairSend {
    ch: Option<SendChannel<i32>>,
    data: Vec<i32>,
    off: usize,
}

impl RankTask for PairSend {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open until done");
        let before = self.off;
        self.off += ch.try_push_slice(&self.data[self.off..])?;
        if self.off == self.data.len() && ch.try_flush()? && ch.fully_sent() {
            self.ch = None;
            return Ok(TaskStatus::Done);
        }
        Ok(if self.off > before {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

/// Receives a stream from the previous rank and publishes it in `out`.
struct PairRecv {
    ch: Option<RecvChannel<i32>>,
    buf: Vec<i32>,
    filled: usize,
    out: std::sync::Arc<parking_lot::Mutex<Vec<Vec<i32>>>>,
    rank: usize,
}

impl RankTask for PairRecv {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open until done");
        let moved = ch.try_pop_slice(&mut self.buf[self.filled..])?;
        self.filled += moved;
        if self.filled == self.buf.len() {
            self.ch = None;
            self.out.lock()[self.rank] = std::mem::take(&mut self.buf);
            return Ok(TaskStatus::Done);
        }
        Ok(if moved > 0 {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

/// 64 ranks on a bus, every pair `2i → 2i+1` streaming `n` elements on the
/// task plane: what each odd rank received, plus the per-worker counters.
fn neighbour_pairs(n: usize, workers: usize) -> (Vec<Vec<i32>>, Vec<WorkerStats>) {
    let ranks = 64usize;
    let payload =
        move |r: usize| -> Vec<i32> { (0..n as i32).map(|i| i * 31 + r as i32).collect() };
    let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); ranks]));
    let metas: Vec<ProgramMeta> = (0..ranks)
        .map(|r| {
            ProgramMeta::new().with(if r % 2 == 0 {
                OpSpec::send(0, Datatype::Int)
            } else {
                OpSpec::recv(0, Datatype::Int)
            })
        })
        .collect();
    let factories: Vec<TaskFactory> = (0..ranks)
        .map(|r| {
            let out = out.clone();
            let f: TaskFactory = Box::new(move |ctx: SmiCtx| {
                Ok(if r % 2 == 0 {
                    Box::new(PairSend {
                        ch: Some(ctx.open_send_channel::<i32>(n as u64, r + 1, 0)?),
                        data: payload(r),
                        off: 0,
                    }) as Box<dyn RankTask>
                } else {
                    Box::new(PairRecv {
                        ch: Some(ctx.open_recv_channel::<i32>(n as u64, r - 1, 0)?),
                        buf: vec![0; n],
                        filled: 0,
                        out,
                        rank: r,
                    })
                })
            });
            f
        })
        .collect();
    let params = RuntimeParams {
        transport_workers: workers,
        ..Default::default()
    };
    let report = run_mpmd_tasks(&Topology::bus(ranks), metas, factories, params).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r} at {workers} workers: {res:?}");
    }
    assert_eq!(report.transport.2, 0, "unroutable packets");
    let got = out.lock().clone();
    for r in (1..ranks).step_by(2) {
        assert_eq!(got[r], payload(r - 1), "rank {r} at {workers} workers");
    }
    (got, report.worker_stats)
}

#[test]
fn neighbour_pairs_keep_every_worker_busy() {
    // Block placement puts sender `2i`, receiver `2i+1` and their CK
    // machines on one worker, 16 pairs per worker at 2 workers: both must
    // carry about half of the progress, where alternating placement left
    // the split to chance and every burst crossing threads.
    let n = 64 << 10;
    let (baseline, _) = neighbour_pairs(n, 1);
    for workers in [2, 4] {
        let (got, stats) = neighbour_pairs(n, workers);
        assert_eq!(got, baseline, "payloads diverged at {workers} workers");
        if workers == 2 {
            let progress: Vec<u64> = stats.iter().map(|s| s.progress).collect();
            let (min, max) = (
                *progress.iter().min().unwrap(),
                *progress.iter().max().unwrap(),
            );
            assert!(
                stats.len() == 2 && min > 0 && max as f64 / min as f64 <= 1.5,
                "unbalanced progress at 2 workers: {stats:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: scheduling is invisible for random shapes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random rank counts, roots, payload lengths, schemes and worker
    /// counts, the multi-worker run matches the single-worker run for all
    /// four collectives.
    #[test]
    fn worker_count_never_changes_results(
        ranks_pick in any::<u8>(),
        root_pick in any::<u8>(),
        count in 1u64..28,
        workers_pick in any::<u8>(),
        tree in any::<bool>(),
    ) {
        let ranks = 2 + (ranks_pick as usize % 9); // 2..=10
        let root = root_pick as usize % ranks;
        let workers = 2 + (workers_pick as usize % 7); // 2..=8
        let scheme = if tree {
            CollectiveScheme::Tree
        } else {
            CollectiveScheme::Linear
        };
        let (baseline, _) = all_collectives(ranks, root, count, scheme, 1);
        let (got, _) = all_collectives(ranks, root, count, scheme, workers);
        prop_assert_eq!(
            &got, &baseline,
            "ranks={} root={} count={} workers={} scheme={:?}",
            ranks, root, count, workers, scheme
        );
    }
}
