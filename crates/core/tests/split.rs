//! Placement tests of the one launch engine: the cluster runs as one group
//! in memory, or partitioned into groups joined by real socket transports
//! (Unix-domain or TCP), in thread mode or task mode — and every observable
//! result must be identical to the single-group in-memory run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use smi::env::{LaunchError, SmiCtx};
use smi::prelude::*;

/// Executor workers per group in the placement matrix (explicit, so the
/// thread bill is a formula, not a property of the host).
const WORKERS: usize = 2;

/// The placements one table drives both rank-body kinds through: no plan,
/// an `"inmem"` plan (one group, whatever its partition says), and socket
/// plans. Each row is `(plan, groups the engine runs)`.
fn placements(topo: &Topology) -> Vec<(Option<ProcessPlan>, usize)> {
    let plan = |backend, nproc| Some(ProcessPlan::split(topo, backend, nproc));
    vec![
        (None, 1),
        (plan(TransportBackend::InMem, 1), 1),
        (plan(TransportBackend::InMem, 2), 1),
        (plan(TransportBackend::Uds, 2), 2),
        (plan(TransportBackend::Uds, 4), 4),
        (plan(TransportBackend::Tcp, 2), 2),
        (plan(TransportBackend::Tcp, 4), 4),
    ]
}

fn label(plan: &Option<ProcessPlan>) -> String {
    match plan {
        None => "no plan".into(),
        Some(p) => format!("{} × {}", p.backend, p.processes.len()),
    }
}

/// Per-rank `(bcast, reduce@root, scatter slice, gather@root)`.
type Suite = (Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>);

/// Run all four rooted collectives in thread mode on `topo` — over `plan`,
/// or with no plan at all. No faults are injected, so a run that had to heal a
/// connection is a bug hiding behind the replay ring: that fails here too.
fn collective_suite_report(
    topo: &Topology,
    plan: Option<&ProcessPlan>,
    root: usize,
    count: u64,
    params: RuntimeParams,
) -> RunReport<Suite> {
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        .with(OpSpec::scatter(2, Datatype::Int))
        .with(OpSpec::gather(3, Datatype::Int));
    let program = move |ctx: SmiCtx| {
        let comm = ctx.world();
        let rank = comm.rank();
        let n = comm.size();
        let is_root = rank == root;
        let mut bcast: Vec<i32> = if is_root {
            (0..count as i32).map(|i| i * 11 - 3).collect()
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
            let src: Vec<i32> = (0..(count * n as u64) as i32).map(|i| i * 5 - 9).collect();
            ch.push_slice(&src).unwrap();
        }
        let mut mine = vec![0i32; count as usize];
        ch.pop_slice(&mut mine).unwrap();
        drop(ch);
        let mut ch = ctx
            .open_gather_channel::<i32>(count, 3, root, &comm)
            .unwrap();
        let own: Vec<i32> = (0..count as i32).map(|i| rank as i32 * 1000 + i).collect();
        ch.push_slice(&own).unwrap();
        let gathered = if is_root {
            let mut all = vec![0i32; (count * n as u64) as usize];
            ch.pop_slice(&mut all).unwrap();
            all
        } else {
            Vec::new()
        };
        (bcast, reduce, mine, gathered)
    };
    let report = match plan {
        Some(plan) => run_split_spmd(plan, meta, program, params),
        None => run_spmd(topo, meta, program, params),
    }
    .unwrap();
    assert_eq!(report.reconnects_healed, 0, "fault-free run healed");
    assert_eq!(report.wire_stats.stream_faults, 0, "fault-free run faulted");
    report
}

/// [`collective_suite_report`]'s results over `plan` under `scheme`.
fn collective_suite(
    plan: &ProcessPlan,
    root: usize,
    count: u64,
    scheme: CollectiveScheme,
) -> Vec<Suite> {
    let params = RuntimeParams {
        collective_scheme: scheme,
        ..Default::default()
    };
    let topo = plan.build_topology().unwrap();
    collective_suite_report(&topo, Some(plan), root, count, params).results
}

/// The acceptance matrix, thread mode: the full collective suite over every
/// placement and every scheme matches the no-plan run bit for bit, and the
/// thread bill is one thread per rank plus every group's workers.
#[test]
fn collective_suite_identical_across_backends_and_splits() {
    let topo = Topology::bus(4);
    let count = 48;
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        for root in [0, 3] {
            let params = RuntimeParams {
                collective_scheme: scheme,
                transport_workers: WORKERS,
                ..Default::default()
            };
            let mut reference = None;
            for (plan, groups) in placements(&topo) {
                let at = format!("{} scheme={scheme:?} root={root}", label(&plan));
                let got =
                    collective_suite_report(&topo, plan.as_ref(), root, count, params.clone());
                assert_eq!(got.threads_spawned, 4 + groups * WORKERS, "{at}");
                let reference = reference.get_or_insert_with(|| got.results.clone());
                assert_eq!(*reference, got.results, "{at}");
            }
        }
    }
}

/// Under `Tree`, bcast and reduce stream along a tree every rank derives
/// from its own process's copy of the routed hop matrix: each group of a
/// split run must arrive at the same one. Where the hop tree is neither the
/// binomial tree nor a single chain — a torus, a bus rooted mid-way — every
/// placement gives the no-plan results, and no connection had to heal.
#[test]
fn every_process_derives_the_same_hop_tree() {
    let params = RuntimeParams {
        collective_scheme: CollectiveScheme::Tree,
        transport_workers: WORKERS,
        ..Default::default()
    };
    for (topo, root) in [(Topology::torus2d(2, 4), 5), (Topology::bus(8), 3)] {
        let mut reference = None;
        for (plan, _) in placements(&topo) {
            let got = collective_suite_report(&topo, plan.as_ref(), root, 100, params.clone());
            let reference = reference.get_or_insert_with(|| got.results.clone());
            assert_eq!(*reference, got.results, "{} root={root}", label(&plan));
        }
        let (bcast, reduce, ..) = &reference.expect("placements ran")[root];
        assert_eq!(*bcast, Vec::from_iter((0..100).map(|i| i * 11 - 3)));
        assert_eq!(*reduce, Vec::from_iter((0..100).map(|i| 8 * i * 7 + 28)));
    }
}

/// The socket path (vectored frames, cork, zero-copy receive decode) is
/// result-invariant: socket ≡ inmem for all four collectives across
/// uds/tcp and 2–8 ranks.
#[test]
fn socket_inmem_identical_across_rank_counts() {
    let count = 40;
    for (ranks, nproc, root) in [(2usize, 2usize, 0usize), (3, 3, 1), (5, 2, 2), (8, 4, 7)] {
        let topo = Topology::bus(ranks);
        let scheme = if ranks % 2 == 0 {
            CollectiveScheme::Tree
        } else {
            CollectiveScheme::Linear
        };
        let reference = collective_suite(
            &ProcessPlan::split(&topo, TransportBackend::InMem, 1),
            root,
            count,
            scheme,
        );
        for backend in [TransportBackend::Uds, TransportBackend::Tcp] {
            let plan = ProcessPlan::split(&topo, backend, nproc);
            let got = collective_suite(&plan, root, count, scheme);
            assert_eq!(
                reference, got,
                "backend={backend} ranks={ranks} nproc={nproc}"
            );
        }
    }
}

/// Uneven partitions (5 ranks over 2 processes: 3 + 2) work too.
#[test]
fn uneven_rank_partition_matches_in_memory() {
    let topo = Topology::bus(5);
    let reference = collective_suite(
        &ProcessPlan::split(&topo, TransportBackend::InMem, 1),
        2,
        32,
        CollectiveScheme::Tree,
    );
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
    assert_eq!(plan.rank_sets(), vec![vec![0, 1, 2], vec![3, 4]]);
    let got = collective_suite(&plan, 2, 32, CollectiveScheme::Tree);
    assert_eq!(reference, got);
}

/// MPMD point-to-point across the process boundary: distinct programs per
/// rank, results slotted by world rank.
#[test]
fn split_mpmd_point_to_point_crosses_boundary() {
    let topo = Topology::bus(4);
    let n = 300u64;
    // Pair up (0 -> 2) and (1 -> 3); with the contiguous [0,1]/[2,3] split
    // every byte crosses the socket.
    let metas: Vec<ProgramMeta> = (0..4)
        .map(|r| {
            if r < 2 {
                ProgramMeta::new().with(OpSpec::send(0, Datatype::Int))
            } else {
                ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int))
            }
        })
        .collect();
    let programs: Vec<Box<dyn FnOnce(SmiCtx) -> Vec<i32> + Send>> = (0..4usize)
        .map(|r| {
            let b: Box<dyn FnOnce(SmiCtx) -> Vec<i32> + Send> = if r < 2 {
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_send_channel::<i32>(n, r + 2, 0).unwrap();
                    let data: Vec<i32> = (0..n as i32).map(|i| i * 3 + r as i32).collect();
                    ch.push_slice(&data).unwrap();
                    Vec::new()
                })
            } else {
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_recv_channel::<i32>(n, r - 2, 0).unwrap();
                    let mut buf = vec![0i32; n as usize];
                    ch.pop_slice(&mut buf).unwrap();
                    buf
                })
            };
            b
        })
        .collect();
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
    let report = run_split_mpmd(&plan, metas, programs, RuntimeParams::default()).unwrap();
    assert_eq!(report.reconnects_healed, 0, "fault-free run healed");
    assert_eq!(report.wire_stats.stream_faults, 0, "fault-free run faulted");
    for r in [2usize, 3] {
        let want: Vec<i32> = (0..n as i32).map(|i| i * 3 + (r - 2) as i32).collect();
        assert_eq!(report.results[r], want, "rank {r}");
    }
}

struct SliceSend {
    ch: Option<SendChannel<i32>>,
    data: Vec<i32>,
    off: usize,
}

impl RankTask for SliceSend {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open");
        let before = self.off;
        if self.off < self.data.len() {
            self.off += ch.try_push_slice(&self.data[self.off..])?;
        }
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

struct SliceRecv {
    ch: Option<RecvChannel<i32>>,
    buf: Vec<i32>,
    filled: usize,
    out: std::sync::Arc<parking_lot::Mutex<Vec<Vec<i32>>>>,
    rank: usize,
}

impl RankTask for SliceRecv {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open");
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

/// Regression (ISSUE 14): both ranks of a UDS pair stream 2 MB at each
/// other before either pops, so every pump sees short writes while it has
/// acks to send. An ack written into a half-sent frame corrupted the
/// payload and was "healed" by a reconnect; fault-free runs must not heal.
#[test]
fn bidirectional_bulk_exchange_is_exact_and_never_heals() {
    const N: u64 = 500_000;
    fn data(rank: usize) -> Vec<i32> {
        (0..N as i32).map(|i| i * 3 + rank as i32).collect()
    }
    let plan = ProcessPlan::split(&Topology::bus(2), TransportBackend::Uds, 2);
    let meta = ProgramMeta::new()
        .with(OpSpec::send(0, Datatype::Int))
        .with(OpSpec::recv(0, Datatype::Int));
    for stream_reconnect in [
        RuntimeParams::default().stream_reconnect,
        ReconnectPolicy::Fail,
    ] {
        for round in 0..5 {
            let params = RuntimeParams {
                stream_reconnect,
                ..Default::default()
            };
            let report = run_split_spmd(
                &plan,
                meta.clone(),
                move |ctx: SmiCtx| {
                    let (me, other) = (ctx.rank(), 1 - ctx.rank());
                    let mut tx = ctx.open_send_channel::<i32>(N, other, 0).unwrap();
                    tx.push_slice(&data(me)).unwrap();
                    let mut rx = ctx.open_recv_channel::<i32>(N, other, 0).unwrap();
                    let mut buf = vec![0i32; N as usize];
                    rx.pop_slice(&mut buf).unwrap();
                    buf
                },
                params,
            )
            .unwrap_or_else(|e| panic!("{stream_reconnect:?} round {round}: {e:?}"));
            assert_eq!(
                report.reconnects_healed, 0,
                "{stream_reconnect:?} round {round}: fault-free run healed"
            );
            assert_eq!(
                report.wire_stats.stream_faults, 0,
                "{stream_reconnect:?} round {round}: fault-free run faulted"
            );
            for rank in 0..2 {
                assert!(
                    report.results[rank] == data(1 - rank),
                    "{stream_reconnect:?} round {round}: rank {rank} popped wrong data"
                );
            }
        }
    }
}

/// The acceptance matrix, task mode: the same placements stream two
/// directed pairs on the cooperative plane (with one rank per group every
/// packet rides a socket pump); what arrives is identical everywhere and
/// the thread bill is the groups' workers alone.
#[test]
fn split_task_plane_streams_across_sockets() {
    let topo = Topology::bus(4);
    let n = 400u64;
    let metas: Vec<ProgramMeta> = (0..4)
        .map(|r| {
            if r % 2 == 0 {
                ProgramMeta::new().with(OpSpec::send(0, Datatype::Int))
            } else {
                ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int))
            }
        })
        .collect();
    let params = RuntimeParams {
        transport_workers: WORKERS,
        ..Default::default()
    };
    for (plan, groups) in placements(&topo) {
        let at = label(&plan);
        let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); 4]));
        let factories: Vec<TaskFactory> = (0..4usize)
            .map(|r| {
                let out = out.clone();
                let f: TaskFactory = if r % 2 == 0 {
                    Box::new(move |ctx: SmiCtx| {
                        let ch = ctx.open_send_channel::<i32>(n, r + 1, 0)?;
                        Ok(Box::new(SliceSend {
                            ch: Some(ch),
                            data: (0..n as i32).map(|i| i * 2 + r as i32).collect(),
                            off: 0,
                        }) as Box<dyn RankTask>)
                    })
                } else {
                    Box::new(move |ctx: SmiCtx| {
                        let ch = ctx.open_recv_channel::<i32>(n, r - 1, 0)?;
                        Ok(Box::new(SliceRecv {
                            ch: Some(ch),
                            buf: vec![0; n as usize],
                            filled: 0,
                            out,
                            rank: r,
                        }) as Box<dyn RankTask>)
                    })
                };
                f
            })
            .collect();
        let report = match &plan {
            Some(plan) => run_split_mpmd_tasks(plan, metas.clone(), factories, params.clone()),
            None => run_mpmd_tasks(&topo, metas.clone(), factories, params.clone()),
        }
        .unwrap();
        assert_eq!(report.reconnects_healed, 0, "{at}: fault-free run healed");
        assert_eq!(
            report.wire_stats.stream_faults, 0,
            "{at}: fault-free run faulted"
        );
        assert_eq!(report.threads_spawned, groups * WORKERS, "{at}");
        for (r, res) in report.results.iter().enumerate() {
            assert!(res.is_ok(), "{at}: rank {r}: {res:?}");
        }
        let collected = std::mem::take(&mut *out.lock());
        for r in [1usize, 3] {
            let want: Vec<i32> = (0..n as i32).map(|i| i * 2 + (r - 1) as i32).collect();
            assert_eq!(collected[r], want, "{at}: rank {r}");
        }
    }
}

/// A task that panics on its first poll.
struct Bomb;

impl RankTask for Bomb {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        panic!("rank 0 blew up");
    }
}

/// A task with nothing to do.
struct Idle;

impl RankTask for Idle {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        Ok(TaskStatus::Done)
    }
}

/// The four mode × placement combinations of a 4-rank bus: no plan, or two
/// UDS-joined groups `[0, 1]` and `[2, 3]`.
fn two_placements() -> [Option<ProcessPlan>; 2] {
    let split = ProcessPlan::split(&Topology::bus(4), TransportBackend::Uds, 2);
    [None, Some(split)]
}

/// Rank 0 panics; rank 1 idles and ranks 2 → 3 stream a message, none of
/// them waiting on rank 0. The caller must observe rank 0's panic — not an
/// `Ok` report — and promptly: well inside the default 10 s
/// `blocking_timeout`, so nobody sat out a stall window to notice. Same
/// contract for a panicking rank thread and a panicking rank task, local
/// and split, on one worker (the panic takes the only worker down) and two.
#[test]
fn rank_task_panic_propagates_like_a_rank_thread_panic() {
    let topo = Topology::bus(4);
    let n = 64u64;
    let data = move || -> Vec<i32> { (0..n as i32).map(|i| i * 5 + 1).collect() };
    let metas = vec![
        ProgramMeta::new(),
        ProgramMeta::new(),
        ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
        ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
    ];
    let assert_panics = |what: String, run: &dyn Fn()| {
        let t0 = Instant::now();
        let payload = catch_unwind(AssertUnwindSafe(run))
            .err()
            .unwrap_or_else(|| panic!("{what}: the rank's panic never reached the caller"));
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"rank 0 blew up"),
            "{what}"
        );
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "{what}: took {took:?}");
    };
    for plan in two_placements() {
        let threads = || {
            let programs: Vec<Box<dyn FnOnce(SmiCtx) + Send>> = vec![
                Box::new(|_| panic!("rank 0 blew up")),
                Box::new(|_| {}),
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_send_channel::<i32>(n, 3, 0).unwrap();
                    ch.push_slice(&data()).unwrap();
                }),
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_recv_channel::<i32>(n, 2, 0).unwrap();
                    let mut buf = vec![0i32; n as usize];
                    ch.pop_slice(&mut buf).unwrap();
                    assert_eq!(buf, data());
                }),
            ];
            let _ = match &plan {
                Some(plan) => run_split_mpmd(plan, metas.clone(), programs, Default::default()),
                None => run_mpmd(&topo, metas.clone(), programs, Default::default()),
            };
        };
        assert_panics(format!("threads, {}", label(&plan)), &threads);
        for workers in [1, 2] {
            let tasks = || {
                let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); 4]));
                let factories: Vec<TaskFactory> = vec![
                    Box::new(|_| Ok(Box::new(Bomb) as Box<dyn RankTask>)),
                    Box::new(|_| Ok(Box::new(Idle) as Box<dyn RankTask>)),
                    Box::new(move |ctx: SmiCtx| {
                        let ch = Some(ctx.open_send_channel::<i32>(n, 3, 0)?);
                        let (data, off) = (data(), 0);
                        Ok(Box::new(SliceSend { ch, data, off }) as Box<dyn RankTask>)
                    }),
                    Box::new(move |ctx: SmiCtx| {
                        let ch = ctx.open_recv_channel::<i32>(n, 2, 0)?;
                        Ok(Box::new(SliceRecv {
                            ch: Some(ch),
                            buf: vec![0; n as usize],
                            filled: 0,
                            out,
                            rank: 3,
                        }) as Box<dyn RankTask>)
                    }),
                ];
                let params = RuntimeParams {
                    transport_workers: workers,
                    ..Default::default()
                };
                let _ = match &plan {
                    Some(plan) => run_split_mpmd_tasks(plan, metas.clone(), factories, params),
                    None => run_mpmd_tasks(&topo, metas.clone(), factories, params),
                };
            };
            let what = format!("tasks on {workers} worker(s), {}", label(&plan));
            assert_panics(what, &tasks);
        }
    }
}

/// A launch that fails validation — port 0 is a bcast on rank 0 and a
/// reduce on rank 1 — returns the same `LaunchError::Codegen` whichever
/// rank-body kind and placement it was headed for, and returns it: every
/// group of a split run fails its preparation and still meets the others
/// at the completion barrier instead of stranding them there.
#[test]
fn validation_failure_is_the_same_error_on_every_path() {
    let topo = Topology::bus(4);
    let metas: Vec<ProgramMeta> = (0..4)
        .map(|r| match r {
            0 => ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int)),
            1 => ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Int, ReduceOp::Add)),
            _ => ProgramMeta::new(),
        })
        .collect();
    let mut errors = Vec::new();
    for plan in two_placements() {
        let programs: Vec<Box<dyn FnOnce(SmiCtx) + Send>> = (0..4)
            .map(|_| Box::new(|_: SmiCtx| {}) as Box<dyn FnOnce(SmiCtx) + Send>)
            .collect();
        let threads = match &plan {
            Some(plan) => run_split_mpmd(plan, metas.clone(), programs, Default::default()),
            None => run_mpmd(&topo, metas.clone(), programs, Default::default()),
        };
        errors.push(threads.map(|_| ()).expect_err("threads: launch must fail"));
        let factories: Vec<TaskFactory> = (0..4)
            .map(|_| Box::new(|_: SmiCtx| Ok(Box::new(Idle) as Box<dyn RankTask>)) as TaskFactory)
            .collect();
        let tasks = match &plan {
            Some(plan) => run_split_mpmd_tasks(plan, metas.clone(), factories, Default::default()),
            None => run_mpmd_tasks(&topo, metas.clone(), factories, Default::default()),
        };
        errors.push(tasks.map(|_| ()).expect_err("tasks: launch must fail"));
    }
    for e in &errors {
        assert!(matches!(e, LaunchError::Codegen(_)), "{e}");
        assert_eq!(e.to_string(), errors[0].to_string());
    }
}

/// A plan round-trips through its JSON description and still runs.
#[test]
fn plan_json_roundtrip_still_runs() {
    let topo = Topology::ring(4);
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
    let again = ProcessPlan::from_json(&plan.to_json()).unwrap();
    assert_eq!(again.rank_sets(), plan.rank_sets());
    let got = collective_suite(&again, 1, 16, CollectiveScheme::Linear);
    let reference = collective_suite(
        &ProcessPlan::split(&topo, TransportBackend::InMem, 1),
        1,
        16,
        CollectiveScheme::Linear,
    );
    assert_eq!(reference, got);
}
