//! End-to-end tests of the thread-based SMI runtime: real data over real
//! routed transport threads.

use smi::env::SmiCtx;
use smi::prelude::*;

type Prog<T> = Box<dyn FnOnce(SmiCtx) -> T + Send>;

fn send_recv_pair(
    topo: &Topology,
    src: usize,
    dst: usize,
    n: u64,
    params: RuntimeParams,
) -> Vec<i32> {
    let metas: Vec<ProgramMeta> = (0..topo.num_ranks())
        .map(|r| {
            let mut m = ProgramMeta::new();
            if r == src {
                m = m.with(OpSpec::send(0, Datatype::Int));
            }
            if r == dst {
                m = m.with(OpSpec::recv(0, Datatype::Int));
            }
            m
        })
        .collect();
    let programs: Vec<Prog<Vec<i32>>> = (0..topo.num_ranks())
        .map(|r| {
            let b: Prog<Vec<i32>> = if r == src {
                Box::new(move |ctx| {
                    let mut ch = ctx.open_send_channel::<i32>(n, dst, 0).unwrap();
                    for i in 0..n as i32 {
                        ch.push(&(i * 3)).unwrap();
                    }
                    Vec::new()
                })
            } else if r == dst {
                Box::new(move |ctx| {
                    let mut ch = ctx.open_recv_channel::<i32>(n, src, 0).unwrap();
                    (0..n).map(|_| ch.pop().unwrap()).collect()
                })
            } else {
                Box::new(|_ctx| Vec::new())
            };
            b
        })
        .collect();
    let report = run_mpmd(topo, metas, programs, params).unwrap();
    assert_eq!(report.transport.2, 0, "unroutable packets");
    report.results.into_iter().nth(dst).unwrap()
}

#[test]
fn p2p_adjacent() {
    let topo = Topology::bus(2);
    let got = send_recv_pair(&topo, 0, 1, 100, RuntimeParams::default());
    assert_eq!(got, (0..100).map(|i| i * 3).collect::<Vec<i32>>());
}

#[test]
fn p2p_multihop_bus() {
    // 0 -> 7 crosses six intermediate ranks' CK kernels.
    let topo = Topology::bus(8);
    let got = send_recv_pair(&topo, 0, 7, 500, RuntimeParams::default());
    assert_eq!(got.len(), 500);
    assert_eq!(got[499], 499 * 3);
}

#[test]
fn p2p_on_torus() {
    let topo = Topology::torus2d(2, 4);
    let got = send_recv_pair(&topo, 1, 6, 333, RuntimeParams::default());
    assert_eq!(got, (0..333).map(|i| i * 3).collect::<Vec<i32>>());
}

#[test]
fn p2p_tight_buffers_backpressure() {
    // One-packet FIFOs everywhere: correctness must not depend on buffering.
    let topo = Topology::bus(4);
    let got = send_recv_pair(&topo, 0, 3, 1000, RuntimeParams::tight());
    assert_eq!(got.len(), 1000);
    assert_eq!(got, (0..1000).map(|i| i * 3).collect::<Vec<i32>>());
}

#[test]
fn p2p_reverse_direction() {
    let topo = Topology::bus(8);
    let got = send_recv_pair(&topo, 7, 2, 64, RuntimeParams::default());
    assert_eq!(got.len(), 64);
}

#[test]
fn intra_rank_channel() {
    // "Channels can also be used to communicate between two applications
    // that exist within the same rank using matching ports" (§3.1.1).
    let topo = Topology::bus(2);
    let metas = vec![
        ProgramMeta::new()
            .with(OpSpec::send(0, Datatype::Double))
            .with(OpSpec::recv(0, Datatype::Double)),
        ProgramMeta::new(),
    ];
    let programs: Vec<Prog<f64>> = vec![
        Box::new(|ctx| {
            let mut tx = ctx.open_send_channel::<f64>(10, 0, 0).unwrap();
            for i in 0..10 {
                tx.push(&(i as f64 * 0.5)).unwrap();
            }
            drop(tx);
            let mut rx = ctx.open_recv_channel::<f64>(10, 0, 0).unwrap();
            (0..10).map(|_| rx.pop().unwrap()).sum()
        }),
        Box::new(|_| 0.0),
    ];
    let report = run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
    assert_eq!(
        report.results[0],
        (0..10).map(|i| i as f64 * 0.5).sum::<f64>()
    );
}

#[test]
fn bidirectional_exchange() {
    // Two ranks exchange simultaneously on distinct ports. The exchange is
    // chunked at packet granularity (7 floats): SMI_Push only emits a packet
    // when the payload fills, so an element-wise lockstep exchange would
    // deadlock — exactly the §3.3 caveat that correctness "must be
    // guaranteed by the user … even if the system provides no buffering".
    let topo = Topology::bus(2);
    let meta = ProgramMeta::new()
        .with(OpSpec::send(0, Datatype::Float))
        .with(OpSpec::recv(1, Datatype::Float))
        .with(OpSpec::send(1, Datatype::Float))
        .with(OpSpec::recv(0, Datatype::Float));
    let n = 2100u64; // multiple of the 7-element packet capacity
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let peer = 1 - ctx.rank();
            // Rank 0 sends on port 0 / receives on port 1; rank 1 mirrors.
            let (sp, rp) = if ctx.rank() == 0 { (0, 1) } else { (1, 0) };
            let mut tx = ctx.open_send_channel::<f32>(n, peer, sp).unwrap();
            let mut rx = ctx.open_recv_channel::<f32>(n, peer, rp).unwrap();
            let mut acc = 0.0f32;
            let chunk = Datatype::Float.elems_per_packet() as u64;
            for c in 0..n / chunk {
                for k in 0..chunk {
                    tx.push(&((c * chunk + k) as f32)).unwrap();
                }
                for _ in 0..chunk {
                    acc += rx.pop().unwrap();
                }
            }
            acc
        },
        RuntimeParams::default(),
    )
    .unwrap();
    let expect: f32 = (0..2100).map(|i| i as f32).sum();
    assert_eq!(report.results, vec![expect, expect]);
}

#[test]
fn credit_protocol_p2p() {
    let topo = Topology::bus(3);
    let n = 700u64;
    let metas = vec![
        ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
        ProgramMeta::new(),
        ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
    ];
    let programs: Vec<Prog<Vec<i32>>> = vec![
        Box::new(move |ctx| {
            let mut ch = ctx
                .open_send_channel_with::<i32>(n, 2, 0, Protocol::Credit { window: 32 })
                .unwrap();
            for i in 0..n as i32 {
                ch.push(&i).unwrap();
            }
            Vec::new()
        }),
        Box::new(|_| Vec::new()),
        Box::new(move |ctx| {
            let mut ch = ctx
                .open_recv_channel_with::<i32>(n, 0, 0, Protocol::Credit { window: 32 })
                .unwrap();
            (0..n).map(|_| ch.pop().unwrap()).collect()
        }),
    ];
    let report = run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
    assert_eq!(report.results[2], (0..n as i32).collect::<Vec<i32>>());
}

#[test]
fn sequential_transient_channels_reuse_port() {
    // Two messages back to back over the same port: transient channels.
    let topo = Topology::bus(2);
    let metas = vec![
        ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
        ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
    ];
    let programs: Vec<Prog<Vec<i32>>> = vec![
        Box::new(|ctx| {
            for round in 0..3 {
                let mut ch = ctx.open_send_channel::<i32>(5, 1, 0).unwrap();
                for i in 0..5 {
                    ch.push(&(round * 100 + i)).unwrap();
                }
            }
            Vec::new()
        }),
        Box::new(|ctx| {
            let mut out = Vec::new();
            for _ in 0..3 {
                let mut ch = ctx.open_recv_channel::<i32>(5, 0, 0).unwrap();
                for _ in 0..5 {
                    out.push(ch.pop().unwrap());
                }
            }
            out
        }),
    ];
    let report = run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
    let want: Vec<i32> = (0..3)
        .flat_map(|r| (0..5).map(move |i| r * 100 + i))
        .collect();
    assert_eq!(report.results[1], want);
}

#[test]
fn open_errors() {
    let topo = Topology::bus(2);
    let metas = vec![
        ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
        ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
    ];
    let programs: Vec<Prog<()>> = vec![
        Box::new(|ctx| {
            // Wrong type.
            assert!(matches!(
                ctx.open_send_channel::<f32>(1, 1, 0),
                Err(SmiError::TypeMismatch { .. })
            ));
            // Unknown port.
            assert!(matches!(
                ctx.open_send_channel::<i32>(1, 1, 9),
                Err(SmiError::NoSuchEndpoint { port: 9, .. })
            ));
            // Peer out of range.
            assert!(matches!(
                ctx.open_send_channel::<i32>(1, 7, 0),
                Err(SmiError::BadRank { rank: 7, .. })
            ));
            // Double open.
            let _c = ctx.open_send_channel::<i32>(1, 1, 0).unwrap();
            assert!(matches!(
                ctx.open_send_channel::<i32>(1, 1, 0),
                Err(SmiError::EndpointBusy { port: 0 })
            ));
            // The peer still waits for one element.
            drop(_c);
            let mut c = ctx.open_send_channel::<i32>(1, 1, 0).unwrap();
            c.push(&42).unwrap();
            assert!(matches!(c.push(&43), Err(SmiError::CountExceeded { .. })));
        }),
        Box::new(|ctx| {
            let mut ch = ctx.open_recv_channel::<i32>(1, 0, 0).unwrap();
            assert_eq!(ch.pop().unwrap(), 42);
        }),
    ];
    run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
}

// ---------------- bulk APIs & scale ----------------

#[test]
fn bulk_slice_paths_match_elementwise() {
    // push_slice/pop_slice move the same stream the per-element API moves,
    // across an odd count that exercises partial packets, on both protocols
    // — with credit windows smaller than one packet (7 × i32) too, where
    // every window's close flushes its partial packet.
    let topo = Topology::bus(3);
    let windows = [1, 3, 64].map(|window| Protocol::Credit { window });
    for protocol in std::iter::once(Protocol::Eager).chain(windows) {
        let n = 10_007u64;
        let metas = vec![
            ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
            ProgramMeta::new(),
            ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
        ];
        let programs: Vec<Prog<Vec<i32>>> = vec![
            Box::new(move |ctx| {
                let mut ch = ctx
                    .open_send_channel_with::<i32>(n, 2, 0, protocol)
                    .unwrap();
                let data: Vec<i32> = (0..n as i32).map(|i| i * 7).collect();
                // Mixed-size slices, including a per-element interlude.
                ch.push_slice(&data[..1000]).unwrap();
                for v in &data[1000..1003] {
                    ch.push(v).unwrap();
                }
                ch.push_slice(&data[1003..]).unwrap();
                Vec::new()
            }),
            Box::new(|_| Vec::new()),
            Box::new(move |ctx| {
                let mut ch = ctx
                    .open_recv_channel_with::<i32>(n, 0, 0, protocol)
                    .unwrap();
                let mut buf = vec![0i32; n as usize];
                ch.pop_slice(&mut buf[..500]).unwrap();
                for slot in buf[500..503].iter_mut() {
                    *slot = ch.pop().unwrap();
                }
                ch.pop_slice(&mut buf[503..]).unwrap();
                buf
            }),
        ];
        let report = run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
        let want: Vec<i32> = (0..n as i32).map(|i| i * 7).collect();
        assert_eq!(report.results[2], want, "{protocol:?}");
    }
}

#[test]
fn p2p_twelve_ranks_on_torus() {
    // More ranks than any pre-existing functional-plane test: exercises the
    // sharded executor with a 24-machine transport.
    let topo = Topology::torus2d(3, 4);
    let got = send_recv_pair(&topo, 0, 11, 500, RuntimeParams::default());
    assert_eq!(got, (0..500).map(|i| i * 3).collect::<Vec<i32>>());
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

/// Disjoint-pair bulk streaming over the cooperative task plane.
fn run_pairs_tasks(ranks: usize, n: u64, params: RuntimeParams) -> (Vec<Vec<i32>>, usize) {
    let topo = Topology::bus(ranks);
    let metas: Vec<ProgramMeta> = (0..ranks)
        .map(|r| {
            if r % 2 == 0 {
                ProgramMeta::new().with(OpSpec::send(0, Datatype::Int))
            } else {
                ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int))
            }
        })
        .collect();
    let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); ranks]));
    let factories: Vec<TaskFactory> = (0..ranks)
        .map(|r| {
            let out = out.clone();
            let f: TaskFactory = if r % 2 == 0 {
                Box::new(move |ctx: SmiCtx| {
                    let ch = ctx.open_send_channel::<i32>(n, r + 1, 0)?;
                    Ok(Box::new(SliceSend {
                        ch: Some(ch),
                        data: (0..n as i32).map(|i| i + r as i32).collect(),
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
    let report = run_mpmd_tasks(&topo, metas, factories, params).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    assert_eq!(report.transport.2, 0, "unroutable packets");
    let collected = std::mem::take(&mut *out.lock());
    (collected, report.threads_spawned)
}

#[test]
fn task_plane_64_ranks_on_worker_pool() {
    // The scaling acceptance scenario: a 64-rank cluster must complete on
    // the executor's worker pool alone — at most 2x the machine's available
    // parallelism in OS threads, instead of 64 rank threads plus one thread
    // per CK kernel.
    let ap = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (results, threads) = run_pairs_tasks(64, 4096, RuntimeParams::default());
    assert!(
        threads <= 2 * ap,
        "64-rank run used {threads} OS threads (available_parallelism = {ap})"
    );
    for r in (1..64).step_by(2) {
        let want: Vec<i32> = (0..4096).map(|i| i + (r as i32 - 1)).collect();
        assert_eq!(results[r], want, "rank {r}");
    }
}

#[test]
fn task_plane_tight_buffers() {
    // Cooperative tasks under 1-packet FIFOs and per-packet bursts: progress
    // must come from polling alone, with heavy backpressure.
    let (results, _) = run_pairs_tasks(6, 999, RuntimeParams::tight());
    for r in (1..6).step_by(2) {
        let want: Vec<i32> = (0..999).map(|i| i + (r as i32 - 1)).collect();
        assert_eq!(results[r], want, "rank {r}");
    }
}

#[test]
fn task_plane_partial_failure_does_not_hang() {
    // Rank 0's factory fails (type mismatch), so rank 1's receiver can
    // never complete: the stall watchdog must end the run with a stall
    // report naming the stranded rank instead of hanging forever.
    let topo = Topology::bus(2);
    let metas = vec![
        ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
        ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
    ];
    let params = RuntimeParams {
        blocking_timeout: std::time::Duration::from_millis(200),
        ..Default::default()
    };
    let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); 2]));
    let out2 = out.clone();
    let factories: Vec<TaskFactory> = vec![
        Box::new(|ctx: SmiCtx| {
            // Wrong element type: fails with TypeMismatch.
            let _ch = ctx.open_send_channel::<f32>(10, 1, 0)?;
            unreachable!("open must fail");
        }),
        Box::new(move |ctx: SmiCtx| {
            let ch = ctx.open_recv_channel::<i32>(10, 0, 0)?;
            Ok(Box::new(SliceRecv {
                ch: Some(ch),
                buf: vec![0; 10],
                filled: 0,
                out: out2,
                rank: 1,
            }) as Box<dyn RankTask>)
        }),
    ];
    let report = run_mpmd_tasks(&topo, metas, factories, params).unwrap();
    assert!(
        matches!(report.results[0], Err(SmiError::TypeMismatch { .. })),
        "{:?}",
        report.results[0]
    );
    assert!(
        matches!(report.results[1], Err(SmiError::Stalled { rank: 1 })),
        "{:?}",
        report.results[1]
    );
}

#[test]
fn task_plane_credit_protocol() {
    // Non-blocking credit absorption: sender tasks stall on the window and
    // resume on coalesced grants, windows below one packet included.
    let topo = Topology::bus(2);
    let n = 5000u64;
    for window in [1, 3, 48] {
        let protocol = Protocol::Credit { window };
        let metas = vec![
            ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
            ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
        ];
        let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); 2]));
        let out2 = out.clone();
        let factories: Vec<TaskFactory> = vec![
            Box::new(move |ctx: SmiCtx| {
                let ch = ctx.open_send_channel_with::<i32>(n, 1, 0, protocol)?;
                Ok(Box::new(SliceSend {
                    ch: Some(ch),
                    data: (0..n as i32).collect(),
                    off: 0,
                }) as Box<dyn RankTask>)
            }),
            Box::new(move |ctx: SmiCtx| {
                let ch = ctx.open_recv_channel_with::<i32>(n, 0, 0, protocol)?;
                Ok(Box::new(SliceRecv {
                    ch: Some(ch),
                    buf: vec![0; n as usize],
                    filled: 0,
                    out: out2,
                    rank: 1,
                }) as Box<dyn RankTask>)
            }),
        ];
        let report = run_mpmd_tasks(&topo, metas, factories, RuntimeParams::default()).unwrap();
        assert!(
            report.results.iter().all(|r| r.is_ok()),
            "{window}: {report:?}"
        );
        assert_eq!(
            out.lock()[1],
            (0..n as i32).collect::<Vec<i32>>(),
            "{window}"
        );
    }
}

// ---------------- collectives ----------------

#[test]
fn bcast_spmd_all_roots() {
    let topo = Topology::torus2d(2, 2);
    let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Float));
    for root in 0..4 {
        let report = run_spmd(
            &topo,
            meta.clone(),
            move |ctx: SmiCtx| {
                let comm = ctx.world();
                let mut chan = ctx.open_bcast_channel::<f32>(50, 0, root, &comm).unwrap();
                let mut got = Vec::new();
                for i in 0..50 {
                    let mut v = if comm.rank() == root {
                        (i * i) as f32
                    } else {
                        -1.0
                    };
                    chan.bcast(&mut v).unwrap();
                    got.push(v);
                }
                got
            },
            RuntimeParams::default(),
        )
        .unwrap();
        let want: Vec<f32> = (0..50).map(|i| (i * i) as f32).collect();
        for r in report.results {
            assert_eq!(r, want, "root {root}");
        }
    }
}

#[test]
fn reduce_add_and_minmax() {
    let topo = Topology::torus2d(2, 4);
    for op in [ReduceOp::Add, ReduceOp::Max, ReduceOp::Min] {
        let meta = ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Int, op));
        let n = 100u64;
        let report = run_spmd(
            &topo,
            meta,
            move |ctx: SmiCtx| {
                let comm = ctx.world();
                let rank = comm.rank() as i32;
                let mut chan = ctx.open_reduce_channel::<i32>(n, 0, 0, &comm).unwrap();
                let mut results = Vec::new();
                for i in 0..n as i32 {
                    // Contribution: rank-dependent so max/min are nontrivial.
                    let contrib = i + rank * 1000;
                    if let Some(v) = chan.reduce(&contrib).unwrap() {
                        results.push(v);
                    }
                }
                results
            },
            RuntimeParams::default(),
        )
        .unwrap();
        for (rank, res) in report.results.iter().enumerate() {
            if rank == 0 {
                let want: Vec<i32> = (0..100)
                    .map(|i| match op {
                        ReduceOp::Add => (0..8).map(|r| i + r * 1000).sum(),
                        ReduceOp::Max => i + 7000,
                        ReduceOp::Min => i,
                    })
                    .collect();
                assert_eq!(res, &want, "{op:?}");
            } else {
                assert!(res.is_empty());
            }
        }
    }
}

#[test]
fn reduce_small_credit_window_multiple_tiles() {
    let topo = Topology::torus2d(2, 2);
    let meta = ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Float, ReduceOp::Add));
    let params = RuntimeParams {
        reduce_credits: 8, // force many credit round trips
        ..Default::default()
    };
    let n = 100u64;
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let mut chan = ctx.open_reduce_channel::<f32>(n, 0, 1, &comm).unwrap();
            let mut out = Vec::new();
            for i in 0..n {
                if let Some(v) = chan.reduce(&(i as f32)).unwrap() {
                    out.push(v);
                }
            }
            out
        },
        params,
    )
    .unwrap();
    let want: Vec<f32> = (0..100).map(|i| 4.0 * i as f32).collect();
    assert_eq!(report.results[1], want);
}

#[test]
fn scatter_slices() {
    let topo = Topology::torus2d(2, 2);
    let meta = ProgramMeta::new().with(OpSpec::scatter(0, Datatype::Int));
    let count = 13u64; // not a multiple of the packet capacity
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let root = 2;
            let mut chan = ctx
                .open_scatter_channel::<i32>(count, 0, root, &comm)
                .unwrap();
            if comm.rank() == root {
                for i in 0..count * 4 {
                    chan.push(&(i as i32 * 2)).unwrap();
                }
            }
            (0..count)
                .map(|_| chan.pop().unwrap())
                .collect::<Vec<i32>>()
        },
        RuntimeParams::default(),
    )
    .unwrap();
    for (rank, res) in report.results.iter().enumerate() {
        let offset = rank as i32 * count as i32;
        let want: Vec<i32> = (0..count as i32).map(|i| (offset + i) * 2).collect();
        assert_eq!(res, &want, "rank {rank}");
    }
}

#[test]
fn gather_ordered() {
    let topo = Topology::torus2d(2, 2);
    let meta = ProgramMeta::new().with(OpSpec::gather(0, Datatype::Int));
    let count = 9u64;
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let root = 1;
            let rank = comm.rank() as i32;
            let mut chan = ctx
                .open_gather_channel::<i32>(count, 0, root, &comm)
                .unwrap();
            for i in 0..count as i32 {
                chan.push(&(rank * 100 + i)).unwrap();
            }
            if comm.rank() == root {
                (0..count * 4)
                    .map(|_| chan.pop().unwrap())
                    .collect::<Vec<i32>>()
            } else {
                Vec::new()
            }
        },
        RuntimeParams::default(),
    )
    .unwrap();
    let want: Vec<i32> = (0..4)
        .flat_map(|r| (0..count as i32).map(move |i| r * 100 + i))
        .collect();
    assert_eq!(report.results[1], want);
}

#[test]
fn collectives_on_sub_communicator() {
    // Split the world in half and broadcast within each half independently.
    let topo = Topology::torus2d(2, 4);
    let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int));
    let report = run_spmd(
        &topo,
        meta,
        |ctx: SmiCtx| {
            let world = ctx.world();
            let color = (world.rank() % 2) as i64; // evens vs odds
            let sub = world.split(color, world.rank() as i64).unwrap();
            let mut chan = ctx.open_bcast_channel::<i32>(10, 0, 0, &sub).unwrap();
            let mut got = Vec::new();
            for i in 0..10 {
                let mut v = if sub.rank() == 0 {
                    color as i32 * 1000 + i
                } else {
                    0
                };
                chan.bcast(&mut v).unwrap();
                got.push(v);
            }
            got
        },
        RuntimeParams::default(),
    )
    .unwrap();
    for (rank, res) in report.results.iter().enumerate() {
        let color = (rank % 2) as i32;
        let want: Vec<i32> = (0..10).map(|i| color * 1000 + i).collect();
        assert_eq!(res, &want, "rank {rank}");
    }
}

#[test]
fn two_parallel_collectives_on_distinct_ports() {
    // "multiple collective communications of the same type [can] execute in
    // parallel, provided that they use separate ports" (§3.2).
    let topo = Topology::torus2d(2, 2);
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::bcast(1, Datatype::Int));
    // Interleave the two broadcasts at packet granularity (7 ints): element-
    // wise lockstep between two different roots would deadlock on packet
    // framing, on real SMI hardware as much as here.
    let n = 21i32;
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let mut a = ctx
                .open_bcast_channel::<i32>(n as u64, 0, 0, &comm)
                .unwrap();
            let mut b = ctx
                .open_bcast_channel::<i32>(n as u64, 1, 3, &comm)
                .unwrap();
            let mut out = (0i64, 0i64);
            let chunk = Datatype::Int.elems_per_packet() as i32;
            for c in 0..n / chunk {
                for k in 0..chunk {
                    let i = c * chunk + k;
                    let mut va = if comm.rank() == 0 { i } else { 0 };
                    a.bcast(&mut va).unwrap();
                    out.0 += va as i64;
                }
                for k in 0..chunk {
                    let i = c * chunk + k;
                    let mut vb = if comm.rank() == 3 { i * 7 } else { 0 };
                    b.bcast(&mut vb).unwrap();
                    out.1 += vb as i64;
                }
            }
            out
        },
        RuntimeParams::default(),
    )
    .unwrap();
    let sum_a: i64 = (0..21).sum();
    let sum_b: i64 = (0..21).map(|i| i * 7).sum();
    for r in report.results {
        assert_eq!(r, (sum_a, sum_b));
    }
}

#[test]
fn single_rank_cluster_local_channels() {
    let topo = Topology::bus(1);
    let metas = vec![ProgramMeta::new()
        .with(OpSpec::send(0, Datatype::Int))
        .with(OpSpec::recv(0, Datatype::Int))];
    let programs: Vec<Prog<i32>> = vec![Box::new(|ctx| {
        let mut tx = ctx.open_send_channel::<i32>(4, 0, 0).unwrap();
        for i in 0..4 {
            tx.push(&i).unwrap();
        }
        drop(tx);
        let mut rx = ctx.open_recv_channel::<i32>(4, 0, 0).unwrap();
        (0..4).map(|_| rx.pop().unwrap()).sum()
    })];
    let report = run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
    assert_eq!(report.results[0], 6);
}

/// A single rank has no CK kernels: every port's lanes loop straight back
/// into its own delivery FIFOs. All four collectives on both schemes, a
/// credit-protocol loopback (grants loop back into the send side) and a
/// lone receive that nothing can ever feed.
#[test]
fn single_rank_cluster_collectives_credit_and_lone_recv() {
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        .with(OpSpec::scatter(2, Datatype::Int))
        .with(OpSpec::gather(3, Datatype::Int))
        .with(OpSpec::send(4, Datatype::Int))
        .with(OpSpec::recv(4, Datatype::Int))
        .with(OpSpec::recv(5, Datatype::Int));
    let credit = Protocol::Credit { window: 3 };
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        for n in [1usize, 64] {
            let params = RuntimeParams {
                collective_scheme: scheme,
                blocking_timeout: std::time::Duration::from_millis(100),
                ..RuntimeParams::default()
            };
            let data: Vec<i32> = (0..n as i32).map(|i| i * 3 - 5).collect();
            let want = data.clone();
            let report = run_spmd(
                &Topology::bus(1),
                meta.clone(),
                move |ctx: SmiCtx| {
                    let comm = ctx.world();
                    let mut bbuf = data.clone();
                    let mut b = ctx
                        .open_bcast_channel::<i32>(n as u64, 0, 0, &comm)
                        .unwrap();
                    b.bcast_slice(&mut bbuf).unwrap();
                    drop(b);
                    let mut rbuf = vec![0; n];
                    let mut r = ctx
                        .open_reduce_channel::<i32>(n as u64, 1, 0, &comm)
                        .unwrap();
                    r.reduce_slice(&data, &mut rbuf).unwrap();
                    drop(r);
                    let mut sbuf = vec![0; n];
                    let mut s = ctx
                        .open_scatter_channel::<i32>(n as u64, 2, 0, &comm)
                        .unwrap();
                    s.push_slice(&data).unwrap();
                    s.pop_slice(&mut sbuf).unwrap();
                    drop(s);
                    let mut gbuf = vec![0; n];
                    let mut g = ctx
                        .open_gather_channel::<i32>(n as u64, 3, 0, &comm)
                        .unwrap();
                    g.push_slice(&data).unwrap();
                    g.pop_slice(&mut gbuf).unwrap();
                    drop(g);
                    // Both ends of the credit channel on one thread: the
                    // sender stops at every spent window until the
                    // receiver's grant comes back round.
                    let src: Vec<i32> = (0..64).map(|i| i * 7).collect();
                    let mut tx = ctx.open_send_channel_with::<i32>(64, 0, 4, credit).unwrap();
                    let mut rx = ctx.open_recv_channel_with::<i32>(64, 0, 4, credit).unwrap();
                    let (mut cbuf, mut sent, mut got) = (vec![0; 64], 0, 0);
                    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while got < 64 {
                        assert!(std::time::Instant::now() < give_up, "credit loopback stuck");
                        sent += tx.try_push_slice(&src[sent..]).unwrap();
                        got += rx.try_pop_slice(&mut cbuf[got..]).unwrap();
                    }
                    assert!(tx.fully_sent());
                    let mut lone = ctx.open_recv_channel::<i32>(1, 0, 5).unwrap();
                    let lone = lone.pop();
                    let lone_timed_out = matches!(lone, Err(SmiError::Timeout { .. }));
                    assert!(lone_timed_out, "lone recv: {lone:?}");
                    (bbuf, rbuf, sbuf, gbuf, cbuf)
                },
                params,
            )
            .unwrap();
            let (bbuf, rbuf, sbuf, gbuf, cbuf) = &report.results[0];
            let what = format!("{scheme:?}, count {n}");
            assert_eq!(bbuf, &want, "bcast, {what}");
            assert_eq!(rbuf, &want, "reduce, {what}");
            assert_eq!(sbuf, &want, "scatter, {what}");
            assert_eq!(gbuf, &want, "gather, {what}");
            assert_eq!(cbuf, &(0..64).map(|i| i * 7).collect::<Vec<i32>>());
        }
    }
}

#[test]
fn zero_count_channels_are_noops() {
    let topo = Topology::bus(2);
    let metas = vec![
        ProgramMeta::new()
            .with(OpSpec::send(0, Datatype::Int))
            .with(OpSpec::bcast(1, Datatype::Float)),
        ProgramMeta::new()
            .with(OpSpec::recv(0, Datatype::Int))
            .with(OpSpec::bcast(1, Datatype::Float)),
    ];
    let programs: Vec<Prog<bool>> = vec![
        Box::new(|ctx| {
            let mut ch = ctx.open_send_channel::<i32>(0, 1, 0).unwrap();
            assert!(matches!(
                ch.push(&1),
                Err(SmiError::CountExceeded { count: 0 })
            ));
            let comm = ctx.world();
            let mut b = ctx.open_bcast_channel::<f32>(0, 1, 0, &comm).unwrap();
            let mut v = 0.0;
            assert!(matches!(
                b.bcast(&mut v),
                Err(SmiError::CountExceeded { .. })
            ));
            true
        }),
        Box::new(|ctx| {
            let mut ch = ctx.open_recv_channel::<i32>(0, 0, 0).unwrap();
            assert!(matches!(
                ch.pop(),
                Err(SmiError::CountExceeded { count: 0 })
            ));
            let comm = ctx.world();
            let _b = ctx.open_bcast_channel::<f32>(0, 1, 0, &comm).unwrap();
            true
        }),
    ];
    let report = run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
    assert!(report.results.iter().all(|&r| r));
}

#[test]
fn size_one_communicator_collectives() {
    // Split the world into singletons: every rank is its own root; bcast
    // and reduce degenerate to local no-ops that still move data correctly.
    let topo = Topology::bus(2);
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add));
    let report = run_spmd(
        &topo,
        meta,
        |ctx: SmiCtx| {
            let world = ctx.world();
            let me = world.rank() as i64;
            let solo = world.split(me, 0).unwrap();
            assert_eq!(solo.size(), 1);
            let mut b = ctx.open_bcast_channel::<i32>(3, 0, 0, &solo).unwrap();
            let mut sum = 0;
            for i in 0..3 {
                let mut v = me as i32 * 10 + i;
                b.bcast(&mut v).unwrap();
                sum += v;
            }
            let mut r = ctx.open_reduce_channel::<i32>(3, 1, 0, &solo).unwrap();
            for i in 0..3 {
                sum += r.reduce(&(i + 100)).unwrap().expect("root of own comm");
            }
            sum
        },
        RuntimeParams::default(),
    )
    .unwrap();
    // bcast leaves the data as-is for a singleton; reduce returns the own
    // contribution. rank r: sum = (10r + 10r+1 + 10r+2) + (100+101+102).
    assert_eq!(report.results[0], 3 + 303);
    assert_eq!(report.results[1], 30 + 3 + 303);
}

#[test]
fn collective_slices_blocking() {
    // The bulk *_slice APIs move the same streams the per-element API moves,
    // across odd counts that exercise partial packets, on the thread plane.
    let topo = Topology::torus2d(2, 4);
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        .with(OpSpec::scatter(2, Datatype::Int))
        .with(OpSpec::gather(3, Datatype::Int));
    let n = 45u64; // not a multiple of the 7-element packet capacity
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let rank = comm.rank() as i32;
            let root = 2usize;
            // Broadcast a whole slice.
            let mut b = ctx.open_bcast_channel::<i32>(n, 0, root, &comm).unwrap();
            let mut bbuf: Vec<i32> = if comm.rank() == root {
                (0..n as i32).map(|i| i * 5 - 3).collect()
            } else {
                vec![0; n as usize]
            };
            b.bcast_slice(&mut bbuf).unwrap();
            drop(b);
            // Reduce a whole slice.
            let mut r = ctx.open_reduce_channel::<i32>(n, 1, root, &comm).unwrap();
            let contrib: Vec<i32> = (0..n as i32).map(|i| i * 7 + rank).collect();
            let mut rbuf = vec![0i32; n as usize];
            r.reduce_slice(&contrib, &mut rbuf).unwrap();
            drop(r);
            // Scatter: the root pushes count × N in one slice.
            let mut s = ctx.open_scatter_channel::<i32>(n, 2, root, &comm).unwrap();
            if comm.rank() == root {
                let src: Vec<i32> = (0..(n * 8) as i32).map(|i| i * 2 + 1).collect();
                s.push_slice(&src).unwrap();
            }
            let mut sbuf = vec![0i32; n as usize];
            s.pop_slice(&mut sbuf).unwrap();
            drop(s);
            // Gather: every member pushes one slice; the root pops count × N.
            let mut g = ctx.open_gather_channel::<i32>(n, 3, root, &comm).unwrap();
            let gsrc: Vec<i32> = (0..n as i32).map(|i| rank * 1000 + i).collect();
            g.push_slice(&gsrc).unwrap();
            let mut gbuf = if comm.rank() == root {
                vec![0i32; (n * 8) as usize]
            } else {
                Vec::new()
            };
            if comm.rank() == root {
                g.pop_slice(&mut gbuf).unwrap();
            }
            (bbuf, rbuf, sbuf, gbuf)
        },
        RuntimeParams::default(),
    )
    .unwrap();
    let want_bcast: Vec<i32> = (0..n as i32).map(|i| i * 5 - 3).collect();
    let want_reduce: Vec<i32> = (0..n as i32)
        .map(|i| (0..8).map(|r| i * 7 + r).sum())
        .collect();
    let want_gather: Vec<i32> = (0..8)
        .flat_map(|r| (0..n as i32).map(move |i| r * 1000 + i))
        .collect();
    for (rank, (bbuf, rbuf, sbuf, gbuf)) in report.results.iter().enumerate() {
        assert_eq!(bbuf, &want_bcast, "bcast rank {rank}");
        let off = rank as i32 * n as i32;
        let want_scatter: Vec<i32> = (0..n as i32).map(|i| (off + i) * 2 + 1).collect();
        assert_eq!(sbuf, &want_scatter, "scatter rank {rank}");
        if rank == 2 {
            assert_eq!(rbuf, &want_reduce, "reduce root");
            assert_eq!(gbuf, &want_gather, "gather root");
        }
    }
}

#[test]
fn mixed_blocking_and_poll_mode_opens_interop() {
    // Poll-mode and blocking opens speak the same wire protocol: two ranks
    // drive their channels with the blocking API while two others spin
    // poll-mode cores by hand, within one broadcast + one reduce.
    let topo = Topology::torus2d(2, 2);
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add));
    let n = 100u64;
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let rank = comm.rank();
            let mut bbuf: Vec<i32> = if rank == 0 {
                (0..n as i32).map(|i| i * 11).collect()
            } else {
                vec![0; n as usize]
            };
            if rank < 2 {
                // Blocking plane (rank 0 is the bcast root).
                let mut b = ctx.open_bcast_channel::<i32>(n, 0, 0, &comm).unwrap();
                if rank == 0 {
                    b.bcast_slice(&mut bbuf).unwrap();
                } else {
                    for v in bbuf.iter_mut() {
                        b.bcast(v).unwrap();
                    }
                }
            } else {
                // Poll-mode core, spun manually on this thread.
                let mut b = ctx.open_bcast_channel_poll::<i32>(n, 0, 0, &comm).unwrap();
                let mut off = 0usize;
                while off < n as usize {
                    off += b.try_bcast_slice(&mut bbuf[off..]).unwrap();
                    std::thread::yield_now();
                }
                while b.poll().unwrap() != CollectiveState::Done {
                    std::thread::yield_now();
                }
            }
            // Reduce to root 3, which runs in poll mode; leaves mix modes.
            let contrib: Vec<i32> = (0..n as i32).map(|i| i + rank as i32).collect();
            let mut rbuf = vec![0i32; n as usize];
            if rank == 3 || rank == 1 {
                let mut r = ctx.open_reduce_channel_poll::<i32>(n, 1, 3, &comm).unwrap();
                let mut off = 0usize;
                while off < n as usize {
                    off += r
                        .try_reduce_slice(&contrib[off..], &mut rbuf[off..])
                        .unwrap();
                    std::thread::yield_now();
                }
                while r.poll().unwrap() != CollectiveState::Done {
                    std::thread::yield_now();
                }
            } else {
                let mut r = ctx.open_reduce_channel::<i32>(n, 1, 3, &comm).unwrap();
                r.reduce_slice(&contrib, &mut rbuf).unwrap();
            }
            (bbuf, rbuf)
        },
        RuntimeParams::default(),
    )
    .unwrap();
    let want_bcast: Vec<i32> = (0..n as i32).map(|i| i * 11).collect();
    let want_reduce: Vec<i32> = (0..n as i32).map(|i| 4 * i + 6).collect();
    for (rank, (bbuf, rbuf)) in report.results.iter().enumerate() {
        assert_eq!(bbuf, &want_bcast, "bcast rank {rank}");
        if rank == 3 {
            assert_eq!(rbuf, &want_reduce, "reduce root");
        }
    }
}

// ---------------- task-plane collectives ----------------

/// Per-rank result collection: (first collective's output, second's).
type SharedResults = std::sync::Arc<parking_lot::Mutex<Vec<(Vec<i32>, Vec<i32>)>>>;

enum CollPhase {
    Bcast {
        ch: BcastChannel<i32>,
        buf: Vec<i32>,
        off: usize,
    },
    Reduce {
        ch: ReduceChannel<i32>,
        contrib: Vec<i32>,
        results: Vec<i32>,
        off: usize,
    },
    Finished,
}

/// One rank of the bcast-then-reduce task-plane scenario: both collectives
/// are opened with the poll-mode variants and driven entirely by `try_*`
/// calls — no blocking anywhere, so the whole cluster runs on the executor
/// worker pool.
struct CollTask {
    ctx: SmiCtx,
    n: u64,
    root: usize,
    phase: CollPhase,
    out: SharedResults,
}

impl RankTask for CollTask {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let rank = self.ctx.rank();
        let phase = std::mem::replace(&mut self.phase, CollPhase::Finished);
        match phase {
            CollPhase::Bcast {
                mut ch,
                mut buf,
                mut off,
            } => {
                let moved = ch.try_bcast_slice(&mut buf[off..])?;
                off += moved;
                if off == buf.len() && ch.poll()? == CollectiveState::Done {
                    drop(ch); // return the endpoint before reporting
                    self.out.lock()[rank].0 = buf;
                    let comm = self.ctx.world();
                    let ch = self
                        .ctx
                        .open_reduce_channel_poll::<i32>(self.n, 1, self.root, &comm)?;
                    let contrib: Vec<i32> = (0..self.n as i32).map(|i| i + rank as i32).collect();
                    let results = vec![0i32; self.n as usize];
                    self.phase = CollPhase::Reduce {
                        ch,
                        contrib,
                        results,
                        off: 0,
                    };
                    return Ok(TaskStatus::Progress);
                }
                self.phase = CollPhase::Bcast { ch, buf, off };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            CollPhase::Reduce {
                mut ch,
                contrib,
                mut results,
                mut off,
            } => {
                let moved = ch.try_reduce_slice(&contrib[off..], &mut results[off..])?;
                off += moved;
                if off == contrib.len() && ch.poll()? == CollectiveState::Done {
                    drop(ch);
                    self.out.lock()[rank].1 = results;
                    self.phase = CollPhase::Finished;
                    return Ok(TaskStatus::Done);
                }
                self.phase = CollPhase::Reduce {
                    ch,
                    contrib,
                    results,
                    off,
                };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            CollPhase::Finished => Ok(TaskStatus::Done),
        }
    }
}

#[test]
fn task_plane_collectives_32_ranks() {
    // The collective acceptance scenario: a 32-rank bcast followed by a
    // 32-rank reduce, every rank a cooperative task (no OS thread per
    // rank), opens rendezvous-free, all progress from try_* polling. The
    // reduce element count spans several credit windows, so coalesced
    // grants are exercised; the stall watchdog bounds a hang.
    let ranks = 32usize;
    let n = 1200u64;
    let root = 0usize;
    let ap = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let topo = Topology::bus(ranks);
    let metas: Vec<ProgramMeta> = (0..ranks)
        .map(|_| {
            ProgramMeta::new()
                .with(OpSpec::bcast(0, Datatype::Int))
                .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
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
                    (0..n as i32).map(|i| i * 3 + 1).collect()
                } else {
                    vec![0; n as usize]
                };
                Ok(Box::new(CollTask {
                    ctx,
                    n,
                    root,
                    phase: CollPhase::Bcast { ch, buf, off: 0 },
                    out,
                }) as Box<dyn RankTask>)
            });
            f
        })
        .collect();
    let report = run_mpmd_tasks(&topo, metas, factories, RuntimeParams::default()).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    assert!(
        report.threads_spawned <= 2 * ap,
        "32-rank collective run used {} OS threads (available_parallelism = {ap})",
        report.threads_spawned
    );
    assert_eq!(report.transport.2, 0, "unroutable packets");
    let out = out.lock();
    let want_bcast: Vec<i32> = (0..n as i32).map(|i| i * 3 + 1).collect();
    for (r, (bcast, _)) in out.iter().enumerate() {
        assert_eq!(bcast, &want_bcast, "bcast rank {r}");
    }
    let want_reduce: Vec<i32> = (0..n as i32)
        .map(|i| 32 * i + (0..32).sum::<i32>())
        .collect();
    assert_eq!(out[root].1, want_reduce, "reduce root results");
}

enum SgPhase {
    Scatter {
        ch: ScatterChannel<i32>,
        src: Vec<i32>,
        push_off: usize,
        buf: Vec<i32>,
        pop_off: usize,
    },
    Gather {
        ch: GatherChannel<i32>,
        src: Vec<i32>,
        push_off: usize,
        buf: Vec<i32>,
        pop_off: usize,
    },
    Finished,
}

/// One rank of the scatter-then-gather task-plane scenario; the root task
/// interleaves pushing and popping within a single poll, which only works
/// because the `try_*` operations never block.
struct SgTask {
    ctx: SmiCtx,
    n: u64,
    root: usize,
    phase: SgPhase,
    out: SharedResults,
}

impl RankTask for SgTask {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let rank = self.ctx.rank();
        let is_root = rank == self.root;
        let phase = std::mem::replace(&mut self.phase, SgPhase::Finished);
        match phase {
            SgPhase::Scatter {
                mut ch,
                src,
                mut push_off,
                mut buf,
                mut pop_off,
            } => {
                let mut moved = 0usize;
                if is_root && push_off < src.len() {
                    let k = ch.try_push_slice(&src[push_off..])?;
                    push_off += k;
                    moved += k;
                }
                let k = ch.try_pop_slice(&mut buf[pop_off..])?;
                pop_off += k;
                moved += k;
                if push_off == src.len()
                    && pop_off == buf.len()
                    && ch.poll()? == CollectiveState::Done
                {
                    drop(ch);
                    self.out.lock()[rank].0 = buf;
                    let comm = self.ctx.world();
                    let ch = self
                        .ctx
                        .open_gather_channel_poll::<i32>(self.n, 1, self.root, &comm)?;
                    let src: Vec<i32> = (0..self.n as i32).map(|i| rank as i32 * 100 + i).collect();
                    let buf = if is_root {
                        vec![0i32; self.n as usize * self.ctx.num_ranks()]
                    } else {
                        Vec::new()
                    };
                    self.phase = SgPhase::Gather {
                        ch,
                        src,
                        push_off: 0,
                        buf,
                        pop_off: 0,
                    };
                    return Ok(TaskStatus::Progress);
                }
                self.phase = SgPhase::Scatter {
                    ch,
                    src,
                    push_off,
                    buf,
                    pop_off,
                };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            SgPhase::Gather {
                mut ch,
                src,
                mut push_off,
                mut buf,
                mut pop_off,
            } => {
                let mut moved = 0usize;
                if push_off < src.len() {
                    let k = ch.try_push_slice(&src[push_off..])?;
                    push_off += k;
                    moved += k;
                }
                if is_root && pop_off < buf.len() {
                    let k = ch.try_pop_slice(&mut buf[pop_off..])?;
                    pop_off += k;
                    moved += k;
                }
                if push_off == src.len()
                    && pop_off == buf.len()
                    && ch.poll()? == CollectiveState::Done
                {
                    drop(ch);
                    self.out.lock()[rank].1 = buf;
                    self.phase = SgPhase::Finished;
                    return Ok(TaskStatus::Done);
                }
                self.phase = SgPhase::Gather {
                    ch,
                    src,
                    push_off,
                    buf,
                    pop_off,
                };
                Ok(if moved > 0 {
                    TaskStatus::Progress
                } else {
                    TaskStatus::Pending
                })
            }
            SgPhase::Finished => Ok(TaskStatus::Done),
        }
    }
}

#[test]
fn task_plane_scatter_gather() {
    // Scatter then gather with every rank (root included) as a cooperative
    // task: the root interleaves try_push/try_pop within one poll.
    let ranks = 8usize;
    let n = 39u64;
    let root = 3usize;
    let topo = Topology::torus2d(2, 4);
    let metas: Vec<ProgramMeta> = (0..ranks)
        .map(|_| {
            ProgramMeta::new()
                .with(OpSpec::scatter(0, Datatype::Int))
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
                let ch = ctx.open_scatter_channel_poll::<i32>(n, 0, root, &comm)?;
                let src: Vec<i32> = if r == root {
                    (0..(n * 8) as i32).map(|i| i * 4 - 7).collect()
                } else {
                    Vec::new()
                };
                Ok(Box::new(SgTask {
                    ctx,
                    n,
                    root,
                    phase: SgPhase::Scatter {
                        ch,
                        src,
                        push_off: 0,
                        buf: vec![0i32; n as usize],
                        pop_off: 0,
                    },
                    out,
                }) as Box<dyn RankTask>)
            });
            f
        })
        .collect();
    let report = run_mpmd_tasks(&topo, metas, factories, RuntimeParams::default()).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    let out = out.lock();
    for (r, (scat, _)) in out.iter().enumerate() {
        let off = r as i32 * n as i32;
        let want: Vec<i32> = (0..n as i32).map(|i| (off + i) * 4 - 7).collect();
        assert_eq!(scat, &want, "scatter rank {r}");
    }
    let want_gather: Vec<i32> = (0..8)
        .flat_map(|r| (0..n as i32).map(move |i| r * 100 + i))
        .collect();
    assert_eq!(out[root].1, want_gather, "gather root");
}

#[test]
fn gather_and_scatter_role_errors() {
    let topo = Topology::bus(2);
    let meta = ProgramMeta::new()
        .with(OpSpec::scatter(0, Datatype::Int))
        .with(OpSpec::gather(1, Datatype::Int));
    let report = run_spmd(
        &topo,
        meta,
        |ctx: SmiCtx| {
            let comm = ctx.world();
            let root = 0;
            let mut s = ctx.open_scatter_channel::<i32>(7, 0, root, &comm).unwrap();
            let mut g = ctx.open_gather_channel::<i32>(7, 1, root, &comm).unwrap();
            let mut ok = true;
            if comm.rank() != root {
                // Non-root may not push a scatter nor pop a gather.
                ok &= matches!(s.push(&1), Err(SmiError::ProtocolViolation { .. }));
                ok &= matches!(g.pop(), Err(SmiError::ProtocolViolation { .. }));
            }
            // Complete the collectives so both ranks exit cleanly.
            if comm.rank() == root {
                for i in 0..14 {
                    s.push(&i).unwrap();
                }
            }
            for _ in 0..7 {
                let _ = s.pop().unwrap();
            }
            for i in 0..7 {
                g.push(&i).unwrap();
            }
            if comm.rank() == root {
                for _ in 0..14 {
                    let _ = g.pop().unwrap();
                }
            }
            ok
        },
        RuntimeParams::default(),
    )
    .unwrap();
    assert!(report.results.iter().all(|&r| r));
}

// ---------------------------------------------------------------------------
// Tree-structured collective schemes
// ---------------------------------------------------------------------------

/// Per-rank collective outcome: `(bcast received, reduce results [root
/// only], scatter slice, gathered stream [root only])`.
type CollOutcome = (Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>);

/// Run all four collectives (bcast, reduce, scatter, gather) on the thread
/// plane with the given routing scheme and return one outcome per rank.
fn run_all_collectives(
    ranks: usize,
    root: usize,
    count: u64,
    scheme: CollectiveScheme,
    mut params: RuntimeParams,
) -> Vec<CollOutcome> {
    params.collective_scheme = scheme;
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
            // --- bcast ---
            let mut bcast_buf: Vec<i32> = if is_root {
                (0..count as i32).map(|i| i * 7 - 3).collect()
            } else {
                vec![0; count as usize]
            };
            let mut ch = ctx
                .open_bcast_channel::<i32>(count, 0, root, &comm)
                .unwrap();
            ch.bcast_slice(&mut bcast_buf).unwrap();
            drop(ch);
            // --- reduce ---
            let contrib: Vec<i32> = (0..count as i32).map(|i| i + rank as i32 * 1000).collect();
            let mut reduce_out = vec![0i32; count as usize];
            let mut ch = ctx
                .open_reduce_channel::<i32>(count, 1, root, &comm)
                .unwrap();
            ch.reduce_slice(&contrib, &mut reduce_out).unwrap();
            drop(ch);
            if !is_root {
                reduce_out.clear();
            }
            // --- scatter ---
            let mut ch = ctx
                .open_scatter_channel::<i32>(count, 2, root, &comm)
                .unwrap();
            if is_root {
                let src: Vec<i32> = (0..(count * n as u64) as i32).map(|i| i * 2 + 5).collect();
                ch.push_slice(&src).unwrap();
            }
            let mut mine = vec![0i32; count as usize];
            ch.pop_slice(&mut mine).unwrap();
            drop(ch);
            // --- gather ---
            let mut ch = ctx
                .open_gather_channel::<i32>(count, 3, root, &comm)
                .unwrap();
            let own: Vec<i32> = (0..count as i32).map(|i| rank as i32 * 100 + i).collect();
            ch.push_slice(&own).unwrap();
            let gathered = if is_root {
                let mut all = vec![0i32; (count * n as u64) as usize];
                ch.pop_slice(&mut all).unwrap();
                all
            } else {
                Vec::new()
            };
            (bcast_buf, reduce_out, mine, gathered)
        },
        params,
    )
    .unwrap();
    report.results
}

/// Verify one `run_all_collectives` outcome against the expected data.
fn check_all_collectives(results: &[CollOutcome], root: usize, count: u64) {
    let n = results.len();
    let want_bcast: Vec<i32> = (0..count as i32).map(|i| i * 7 - 3).collect();
    let want_reduce: Vec<i32> = (0..count as i32)
        .map(|i| (0..n as i32).map(|r| i + r * 1000).sum())
        .collect();
    let want_gather: Vec<i32> = (0..n as i32)
        .flat_map(|r| (0..count as i32).map(move |i| r * 100 + i))
        .collect();
    for (rank, (bcast, reduce, mine, gathered)) in results.iter().enumerate() {
        assert_eq!(bcast, &want_bcast, "bcast rank {rank} (n={n} root={root})");
        let want_scatter: Vec<i32> = (0..count as i32)
            .map(|i| (rank as i32 * count as i32 + i) * 2 + 5)
            .collect();
        assert_eq!(
            mine, &want_scatter,
            "scatter rank {rank} (n={n} root={root})"
        );
        if rank == root {
            assert_eq!(reduce, &want_reduce, "reduce root (n={n} root={root})");
            assert_eq!(gathered, &want_gather, "gather root (n={n} root={root})");
        } else {
            assert!(reduce.is_empty() && gathered.is_empty());
        }
    }
}

#[test]
fn tree_collectives_all_four() {
    // Tree scheme across assorted communicator sizes (powers of two and
    // not) and rotated roots; count chosen so packets are partial and the
    // reduce spans several credit windows.
    for (ranks, root) in [(2, 0), (3, 1), (6, 5), (9, 2), (12, 0)] {
        let params = RuntimeParams {
            reduce_credits: 16,
            ..Default::default()
        };
        let results = run_all_collectives(ranks, root, 37, CollectiveScheme::Tree, params);
        check_all_collectives(&results, root, 37);
    }
}

#[test]
fn tree_collectives_tight_buffers() {
    // Tiny FIFOs + per-packet handover: interior forwarding must survive
    // maximal backpressure without deadlock or reordering.
    let results = run_all_collectives(7, 3, 23, CollectiveScheme::Tree, RuntimeParams::tight());
    check_all_collectives(&results, 3, 23);
}

#[test]
fn tree_matches_linear_33_ranks() {
    // The largest non-power-of-two acceptance shape: results must be
    // identical between the schemes, element for element.
    let count = 19u64;
    let lin = run_all_collectives(33, 4, count, CollectiveScheme::Linear, Default::default());
    let tree = run_all_collectives(33, 4, count, CollectiveScheme::Tree, Default::default());
    assert_eq!(lin, tree);
    check_all_collectives(&tree, 4, count);
}

#[test]
fn reduce_tail_window_no_overgrant() {
    // Regression: with a count that is not a multiple of the credit
    // window (and a rank count that is not a power of two), the final
    // window grant must be clamped to the tail. The leaves verify the
    // invariant on the wire — an over-grant surfaces as a
    // ProtocolViolation instead of passing silently.
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        let params = RuntimeParams {
            reduce_credits: 4, // count = 10 → windows 4 + 4 + tail 2
            collective_scheme: scheme,
            ..Default::default()
        };
        let results = run_all_collectives(3, 0, 10, scheme, params);
        check_all_collectives(&results, 0, 10);
    }
}

#[test]
fn blocking_deadline_bounds_trickling_collective() {
    // A peer that pops one element per poll (with a nap in between) keeps
    // resetting the root's stall deadline — without an overall deadline the
    // root's blocking bcast_slice would run for ~n × nap. With
    // `blocking_deadline` set, the call must end (complete or error)
    // within the bound.
    let topo = Topology::bus(2);
    let metas: Vec<ProgramMeta> = (0..2)
        .map(|_| ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int)))
        .collect();
    let n = 4096u64;
    let params = RuntimeParams {
        blocking_timeout: std::time::Duration::from_millis(500),
        blocking_deadline: Some(std::time::Duration::from_millis(300)),
        // Small FIFOs so backpressure reaches the root long before the
        // message completes — the transport must not buffer the whole
        // stream.
        endpoint_fifo_depth: 4,
        ck_fifo_depth: 4,
        burst_packets: 8,
        ..Default::default()
    };
    // Time the root's blocking call itself: the whole run also includes
    // the receiver draining buffered packets at 1 ms/element and then its
    // own 500 ms stall timeout, which scales with the host's buffering and
    // scheduling — not what the deadline bounds.
    let root_elapsed = std::sync::Arc::new(parking_lot::Mutex::new(std::time::Duration::ZERO));
    let root_elapsed_w = root_elapsed.clone();
    let programs: Vec<Prog<Result<(), SmiError>>> = vec![
        Box::new(move |ctx: SmiCtx| {
            let comm = ctx.world();
            let mut ch = ctx.open_bcast_channel::<i32>(n, 0, 0, &comm)?;
            let mut data: Vec<i32> = (0..n as i32).collect();
            let start = std::time::Instant::now();
            let res = ch.bcast_slice(&mut data);
            *root_elapsed_w.lock() = start.elapsed();
            res
        }),
        Box::new(move |ctx: SmiCtx| {
            let comm = ctx.world();
            let mut ch = ctx.open_bcast_channel::<i32>(n, 0, 0, &comm)?;
            for _ in 0..n {
                let mut v = 0i32;
                ch.bcast(&mut v)?;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Ok(())
        }),
    ];
    let report = run_mpmd(&topo, metas, programs, params).unwrap();
    // The root must have been cut off by the overall deadline (the peer
    // trickles for ~4 s, far past the 300 ms bound) …
    assert!(
        matches!(report.results[0], Err(SmiError::DeadlineExceeded { .. })),
        "{:?}",
        report.results[0]
    );
    // … and within the bound plus scheduling slack, not the stall bound
    // times the packet count (the peer would trickle for ~4 s).
    let dt = *root_elapsed.lock();
    assert!(
        dt < std::time::Duration::from_millis(1500),
        "deadline did not bound the root's call: {dt:?}"
    );
}

#[test]
fn task_plane_single_stuck_rank_surfaces_id() {
    // Two ranks finish immediately; rank 2 livelocks (Pending forever).
    // The per-rank watchdog must name exactly the stuck rank instead of
    // hiding it behind the other ranks' progress.
    struct DoneNow;
    impl RankTask for DoneNow {
        fn poll(&mut self) -> Result<TaskStatus, SmiError> {
            Ok(TaskStatus::Done)
        }
    }
    struct Stuck;
    impl RankTask for Stuck {
        fn poll(&mut self) -> Result<TaskStatus, SmiError> {
            Ok(TaskStatus::Pending)
        }
    }
    let topo = Topology::bus(3);
    let metas = vec![ProgramMeta::new(); 3];
    let params = RuntimeParams {
        blocking_timeout: std::time::Duration::from_millis(200),
        ..Default::default()
    };
    let factories: Vec<TaskFactory> = (0..3)
        .map(|r| {
            let f: TaskFactory = Box::new(move |_ctx: SmiCtx| {
                Ok(if r == 2 {
                    Box::new(Stuck) as Box<dyn RankTask>
                } else {
                    Box::new(DoneNow) as Box<dyn RankTask>
                })
            });
            f
        })
        .collect();
    let report = run_mpmd_tasks(&topo, metas, factories, params).unwrap();
    assert!(report.results[0].is_ok() && report.results[1].is_ok());
    assert!(
        matches!(report.results[2], Err(SmiError::Stalled { rank: 2 })),
        "{:?}",
        report.results[2]
    );
}

#[test]
fn task_plane_tree_collectives_16_ranks() {
    // Tree-scheme bcast + reduce driven entirely by cooperative tasks:
    // interior forwarders/combiners make progress from poll() alone.
    let ranks = 16usize;
    let n = 700u64;
    let root = 0usize;
    let topo = Topology::bus(ranks);
    let metas: Vec<ProgramMeta> = (0..ranks)
        .map(|_| {
            ProgramMeta::new()
                .with(OpSpec::bcast(0, Datatype::Int))
                .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        })
        .collect();
    let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![
        (Vec::new(), Vec::new());
        ranks
    ]));
    let params = RuntimeParams {
        collective_scheme: CollectiveScheme::Tree,
        ..Default::default()
    };
    let factories: Vec<TaskFactory> = (0..ranks)
        .map(|r| {
            let out = out.clone();
            let f: TaskFactory = Box::new(move |ctx: SmiCtx| {
                let comm = ctx.world();
                let ch = ctx.open_bcast_channel_poll::<i32>(n, 0, root, &comm)?;
                let buf: Vec<i32> = if r == root {
                    (0..n as i32).map(|i| i * 3 + 1).collect()
                } else {
                    vec![0; n as usize]
                };
                Ok(Box::new(CollTask {
                    ctx,
                    n,
                    root,
                    phase: CollPhase::Bcast { ch, buf, off: 0 },
                    out,
                }) as Box<dyn RankTask>)
            });
            f
        })
        .collect();
    let report = run_mpmd_tasks(&topo, metas, factories, params).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    let out = out.lock();
    let want_bcast: Vec<i32> = (0..n as i32).map(|i| i * 3 + 1).collect();
    for (r, (bcast, _)) in out.iter().enumerate() {
        assert_eq!(bcast, &want_bcast, "bcast rank {r}");
    }
    let want_reduce: Vec<i32> = (0..n as i32)
        .map(|i| ranks as i32 * i + (0..ranks as i32).sum::<i32>())
        .collect();
    assert_eq!(out[root].1, want_reduce, "reduce root results");
}
