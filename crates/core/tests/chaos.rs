//! Chaos tests of the self-healing socket fabric: deterministic and
//! randomized fault schedules (drop / duplicate / delay / sever) injected
//! into split-cluster runs must either heal — producing results identical
//! to a fault-free run — or fail with a clean typed error naming the
//! culprit. Never a hang, never wrong data.

use proptest::prelude::*;
use smi::env::SmiCtx;
use smi::prelude::*;

/// Per-rank output: `(bcast, reduce@root, scatter slice, gather@root)`,
/// or the typed error the rank's channel op surfaced.
type RankOut = Result<(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>), SmiError>;

/// Run all four collectives over `plan` (which may carry a fault schedule)
/// with the given mid-stream reconnect policy. Rank programs propagate
/// channel errors instead of unwrapping, so a failed recovery shows up as
/// a typed per-rank error rather than a panic.
fn faulty_collectives(
    plan: &ProcessPlan,
    root: usize,
    count: u64,
    scheme: CollectiveScheme,
    stream_reconnect: ReconnectPolicy,
) -> RunReport<RankOut> {
    let params = RuntimeParams {
        collective_scheme: scheme,
        reduce_credits: 32,
        stream_reconnect,
        ..Default::default()
    };
    run_split_spmd(
        plan,
        ProgramMeta::new()
            .with(OpSpec::bcast(0, Datatype::Int))
            .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
            .with(OpSpec::scatter(2, Datatype::Int))
            .with(OpSpec::gather(3, Datatype::Int)),
        move |ctx: SmiCtx| -> RankOut {
            let comm = ctx.world();
            let rank = comm.rank();
            let n = comm.size();
            let is_root = rank == root;
            let mut bcast: Vec<i32> = if is_root {
                (0..count as i32).map(|i| i * 13 - 7).collect()
            } else {
                vec![0; count as usize]
            };
            let mut ch = ctx.open_bcast_channel::<i32>(count, 0, root, &comm)?;
            ch.bcast_slice(&mut bcast)?;
            drop(ch);
            let contrib: Vec<i32> = (0..count as i32).map(|i| i * 3 + rank as i32).collect();
            let mut reduce = vec![0i32; count as usize];
            let mut ch = ctx.open_reduce_channel::<i32>(count, 1, root, &comm)?;
            ch.reduce_slice(&contrib, &mut reduce)?;
            drop(ch);
            if !is_root {
                reduce.clear();
            }
            let mut ch = ctx.open_scatter_channel::<i32>(count, 2, root, &comm)?;
            if is_root {
                let src: Vec<i32> = (0..(count * n as u64) as i32).map(|i| i * 5 - 9).collect();
                ch.push_slice(&src)?;
            }
            let mut mine = vec![0i32; count as usize];
            ch.pop_slice(&mut mine)?;
            drop(ch);
            let mut ch = ctx.open_gather_channel::<i32>(count, 3, root, &comm)?;
            let own: Vec<i32> = (0..count as i32).map(|i| rank as i32 * 1000 + i).collect();
            ch.push_slice(&own)?;
            let gathered = if is_root {
                let mut all = vec![0i32; (count * n as u64) as usize];
                ch.pop_slice(&mut all)?;
                all
            } else {
                Vec::new()
            };
            Ok((bcast, reduce, mine, gathered))
        },
        params,
    )
    .expect("split run launches")
}

/// Every rank completed and delivered exactly the fault-free results
/// (computed analytically, which *is* the fault-free outcome: the
/// fault-free paths are covered by `proptests.rs`).
fn assert_healed_results(results: &[RankOut], root: usize, count: u64) {
    let n = results.len();
    for (rank, res) in results.iter().enumerate() {
        let (bcast, reduce, mine, gathered) = res
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed under recoverable faults: {e}"));
        let want_bcast: Vec<i32> = (0..count as i32).map(|i| i * 13 - 7).collect();
        assert_eq!(bcast, &want_bcast, "bcast rank {rank}");
        let want_scatter: Vec<i32> = (0..count as i32)
            .map(|i| (rank as i32 * count as i32 + i) * 5 - 9)
            .collect();
        assert_eq!(mine, &want_scatter, "scatter rank {rank}");
        if rank == root {
            let want_reduce: Vec<i32> = (0..count as i32)
                .map(|i| (0..n as i32).map(|r| i * 3 + r).sum())
                .collect();
            assert_eq!(reduce, &want_reduce, "reduce root");
            let want_gather: Vec<i32> = (0..n as i32)
                .flat_map(|r| (0..count as i32).map(move |i| r * 1000 + i))
                .collect();
            assert_eq!(gathered, &want_gather, "gather root");
        } else {
            assert!(reduce.is_empty(), "non-root reduce rank {rank}");
            assert!(gathered.is_empty(), "non-root gather rank {rank}");
        }
    }
}

fn split_plan(ranks: usize, nproc: usize, backend: TransportBackend) -> ProcessPlan {
    ProcessPlan::split(&Topology::bus(ranks), backend, nproc)
}

// ---------------------------------------------------------------------------
// Deterministic fault schedules
// ---------------------------------------------------------------------------

#[test]
fn severed_link_heals_by_replay_uds() {
    let mut plan = split_plan(4, 2, TransportBackend::Uds);
    plan.faults = Some(FaultPlan {
        links: vec![LinkFault {
            sever: vec![SeverSpec { after_frame: 3 }],
            ..LinkFault::clean(0, 1)
        }],
    });
    let report = faulty_collectives(&plan, 0, 64, CollectiveScheme::Linear, default_retry());
    assert_healed_results(&report.results, 0, 64);
    assert!(
        report.reconnects_healed >= 1,
        "a severed stream must recover through the replay handshake \
         (healed={})",
        report.reconnects_healed
    );
}

#[test]
fn severed_link_heals_by_replay_tcp() {
    let mut plan = split_plan(4, 2, TransportBackend::Tcp);
    plan.faults = Some(FaultPlan {
        links: vec![LinkFault {
            sever: vec![SeverSpec { after_frame: 3 }],
            ..LinkFault::clean(1, 0)
        }],
    });
    let report = faulty_collectives(&plan, 1, 64, CollectiveScheme::Tree, default_retry());
    assert_healed_results(&report.results, 1, 64);
    assert!(report.reconnects_healed >= 1);
}

/// A sever-and-restore schedule heals to exactly what the same plan
/// delivers without the fault.
#[test]
fn sever_heals_identically_to_fault_free() {
    let mut plan = split_plan(4, 2, TransportBackend::Uds);
    let clean = faulty_collectives(&plan, 0, 256, CollectiveScheme::Tree, default_retry());
    // The cork merges small bursts into few frames, so the sever must
    // trigger early to fire at all.
    plan.faults = Some(FaultPlan {
        links: vec![LinkFault {
            sever: vec![SeverSpec { after_frame: 1 }],
            ..LinkFault::clean(0, 1)
        }],
    });
    let healed = faulty_collectives(&plan, 0, 256, CollectiveScheme::Tree, default_retry());
    assert_healed_results(&clean.results, 0, 256);
    assert_eq!(
        healed.results, clean.results,
        "healing must be result-invariant"
    );
    assert_eq!(clean.reconnects_healed, 0, "fault-free run healed");
    assert_eq!(clean.wire_stats.stream_faults, 0, "fault-free run faulted");
    assert!(healed.reconnects_healed >= 1, "severed run must heal");
}

/// One process listens for two peers and both of its connections heal at
/// once: `ring(6)` over three processes makes process 0 the listening side
/// for processes 1 and 2, and a restorable sever on each of `1→0` and
/// `2→0` sends both to re-dial the one data listener. Whichever of process
/// 0's reconnecting connections accepts a re-dial routes it to its owner.
#[test]
fn one_listener_heals_two_connections_at_once() {
    let mut plan = ProcessPlan::split(&Topology::ring(6), TransportBackend::Uds, 3);
    let clean = faulty_collectives(&plan, 0, 256, CollectiveScheme::Tree, default_retry());
    plan.faults = Some(FaultPlan {
        links: [1, 2]
            .map(|from| LinkFault {
                sever: vec![SeverSpec { after_frame: 1 }],
                ..LinkFault::clean(from, 0)
            })
            .to_vec(),
    });
    let healed = faulty_collectives(&plan, 0, 256, CollectiveScheme::Tree, default_retry());
    assert_healed_results(&clean.results, 0, 256);
    assert_eq!(
        healed.results, clean.results,
        "healing must be result-invariant"
    );
    assert_eq!(clean.reconnects_healed, 0, "fault-free run healed");
    assert_eq!(clean.wire_stats.stream_faults, 0, "fault-free run faulted");
    assert!(
        healed.reconnects_healed >= 2,
        "both severed connections must heal (healed={})",
        healed.reconnects_healed
    );
}

/// Every fault kind on one link while both directions hold 2 MB queued, so
/// the flush is deciding drops, copies and the sever between short writes
/// of multi-frame windows — the send path every connection ships with.
#[test]
fn faults_under_partial_writes_heal_to_fault_free_results() {
    const N: u64 = 500_000;
    fn data(rank: usize) -> Vec<i32> {
        (0..N as i32).map(|i| i * 7 - rank as i32).collect()
    }
    let mut plan = split_plan(2, 2, TransportBackend::Uds);
    plan.faults = Some(FaultPlan {
        links: vec![
            LinkFault {
                drop: vec![5],
                duplicate: vec![9],
                delay: vec![DelaySpec { frame: 14, by: 2 }],
                sever: vec![SeverSpec { after_frame: 40 }],
                ..LinkFault::clean(0, 1)
            },
            LinkFault {
                duplicate: vec![3],
                sever: vec![SeverSpec { after_frame: 25 }],
                ..LinkFault::clean(1, 0)
            },
        ],
    });
    let report = run_split_spmd(
        &plan,
        ProgramMeta::new()
            .with(OpSpec::send(0, Datatype::Int))
            .with(OpSpec::recv(0, Datatype::Int)),
        |ctx: SmiCtx| -> Result<Vec<i32>, SmiError> {
            let (me, other) = (ctx.rank(), 1 - ctx.rank());
            let mut tx = ctx.open_send_channel::<i32>(N, other, 0)?;
            tx.push_slice(&data(me))?;
            let mut rx = ctx.open_recv_channel::<i32>(N, other, 0)?;
            let mut buf = vec![0i32; N as usize];
            rx.pop_slice(&mut buf)?;
            Ok(buf)
        },
        RuntimeParams::default(),
    )
    .expect("split run launches");
    for (rank, res) in report.results.iter().enumerate() {
        let got = res
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed under recoverable faults: {e}"));
        assert!(*got == data(1 - rank), "rank {rank} popped wrong data");
    }
    assert!(
        report.reconnects_healed >= 1,
        "drops, a delay and severs must heal through reconnect"
    );
}

#[test]
fn dropped_and_duplicated_frames_heal_transparently() {
    // A dropped frame leaves a sequence gap (reconnect + replay repairs
    // it); a duplicated frame is discarded by the receiver's seq check.
    let mut plan = split_plan(4, 2, TransportBackend::Uds);
    plan.faults = Some(FaultPlan {
        links: vec![
            LinkFault {
                drop: vec![2],
                duplicate: vec![4],
                ..LinkFault::clean(0, 1)
            },
            LinkFault {
                drop: vec![5],
                duplicate: vec![1],
                ..LinkFault::clean(1, 0)
            },
        ],
    });
    let report = faulty_collectives(&plan, 2, 64, CollectiveScheme::Linear, default_retry());
    assert_healed_results(&report.results, 2, 64);
    assert!(
        report.reconnects_healed >= 1,
        "a dropped frame must heal through reconnect"
    );
}

#[test]
fn delayed_frame_reorders_and_heals() {
    let mut plan = split_plan(4, 2, TransportBackend::Uds);
    plan.faults = Some(FaultPlan {
        links: vec![LinkFault {
            delay: vec![DelaySpec { frame: 2, by: 2 }],
            ..LinkFault::clean(0, 1)
        }],
    });
    let report = faulty_collectives(&plan, 0, 64, CollectiveScheme::Linear, default_retry());
    assert_healed_results(&report.results, 0, 64);
}

#[test]
fn sever_without_restore_surfaces_typed_peer_disconnect() {
    // `restore: false` simulates a permanent peer loss: both sides exhaust
    // their reconnect budgets and every affected rank gets a clean
    // PeerDisconnected naming the culprit — not a hang, not wrong data.
    let mut plan = split_plan(4, 2, TransportBackend::Uds);
    plan.faults = Some(FaultPlan {
        links: vec![LinkFault {
            sever: vec![SeverSpec { after_frame: 2 }],
            restore: false,
            ..LinkFault::clean(0, 1)
        }],
    });
    // A small budget keeps the exhaustion fast; the test asserts the
    // *outcome*, the budget length is not the contract.
    let report = faulty_collectives(
        &plan,
        0,
        64,
        CollectiveScheme::Linear,
        ReconnectPolicy::retry_fixed(3, std::time::Duration::from_millis(10)),
    );
    let disconnects: Vec<usize> = report
        .results
        .iter()
        .enumerate()
        .filter_map(|(rank, r)| match r {
            Err(SmiError::PeerDisconnected { rank: culprit }) => {
                // The named culprit must be a rank of the *other* process
                // group (the bus(4)/2-proc split puts ranks 0,1 in process
                // 0 and 2,3 in process 1).
                let mine = if rank < 2 { [2, 3] } else { [0, 1] };
                assert!(
                    mine.contains(culprit),
                    "rank {rank} blamed rank {culprit}, expected one of {mine:?}"
                );
                Some(rank)
            }
            _ => None,
        })
        .collect();
    assert!(
        !disconnects.is_empty(),
        "at least one rank must surface PeerDisconnected; got {:?}",
        report
            .results
            .iter()
            .map(|r| r.as_ref().err().map(|e| e.to_string()))
            .collect::<Vec<_>>()
    );
    assert_eq!(report.reconnects_healed, 0, "nothing may heal");
}

#[test]
fn fail_policy_turns_first_fault_into_typed_error() {
    // With `ReconnectPolicy::Fail` no recovery is attempted: the first
    // mid-stream fault becomes PeerDisconnected immediately.
    let mut plan = split_plan(4, 2, TransportBackend::Uds);
    plan.faults = Some(FaultPlan {
        links: vec![LinkFault {
            sever: vec![SeverSpec { after_frame: 2 }],
            ..LinkFault::clean(1, 0)
        }],
    });
    let start = std::time::Instant::now();
    let report = faulty_collectives(
        &plan,
        0,
        64,
        CollectiveScheme::Linear,
        ReconnectPolicy::Fail,
    );
    assert!(
        report
            .results
            .iter()
            .any(|r| matches!(r, Err(SmiError::PeerDisconnected { .. }))),
        "results: {:?}",
        report
            .results
            .iter()
            .map(|r| r.as_ref().err().map(|e| e.to_string()))
            .collect::<Vec<_>>()
    );
    assert_eq!(report.reconnects_healed, 0);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(20),
        "fail-fast must not wait out reconnect budgets"
    );
}

fn default_retry() -> ReconnectPolicy {
    RuntimeParams::default().stream_reconnect
}

// ---------------------------------------------------------------------------
// Randomized chaos schedules
// ---------------------------------------------------------------------------

/// Derive a deterministic pseudo-random fault schedule over the directed
/// process-pair links from proptest-supplied entropy. All entries keep
/// `restore: true`, so every schedule must heal.
fn random_faults(nproc: usize, entropy: u64) -> FaultPlan {
    let mut x = entropy | 1;
    let mut next = || {
        // xorshift64*: cheap, deterministic, good enough to scatter faults.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut links = Vec::new();
    for lo in 0..nproc.saturating_sub(1) {
        // The contiguous bus split only crosses adjacent groups; entries
        // for absent links would simply never fire.
        for (from, to) in [(lo, lo + 1), (lo + 1, lo)] {
            let r = next();
            if r % 4 == 0 {
                continue; // leave this direction fault-free
            }
            let mut lf = LinkFault::clean(from, to);
            let ordinal = |v: u64| 1 + v % 24;
            if r % 2 == 0 {
                lf.drop.push(ordinal(next()));
            }
            if r % 3 == 0 {
                lf.duplicate.push(ordinal(next()));
            }
            if r % 5 == 0 {
                lf.delay.push(DelaySpec {
                    frame: ordinal(next()),
                    by: 1 + next() % 3,
                });
            }
            if r % 3 == 1 {
                lf.sever.push(SeverSpec {
                    after_frame: ordinal(next()),
                });
            }
            links.push(lf);
        }
    }
    FaultPlan { links }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault schedules (drop / duplicate / delay / sever, all
    /// restorable) over random cluster shapes, roots, schemes and
    /// backends always heal: results are identical to the fault-free
    /// run, with no hangs and no wrong data.
    #[test]
    fn random_fault_schedules_always_heal(
        ranks_pick in any::<u8>(),
        root_pick in any::<u8>(),
        nproc_pick in any::<u8>(),
        count in 8u64..48,
        tree in any::<bool>(),
        tcp in any::<bool>(),
        entropy in any::<u64>(),
    ) {
        let ranks = 2 + (ranks_pick as usize % 7); // 2..=8
        let root = root_pick as usize % ranks;
        let nproc = 2 + (nproc_pick as usize % (ranks - 1)).min(ranks - 2); // 2..=ranks
        let backend = if tcp { TransportBackend::Tcp } else { TransportBackend::Uds };
        let scheme = if tree { CollectiveScheme::Tree } else { CollectiveScheme::Linear };
        let mut plan = split_plan(ranks, nproc, backend);
        plan.faults = Some(random_faults(nproc, entropy));
        let report = faulty_collectives(&plan, root, count, scheme, default_retry());
        let n = report.results.len();
        prop_assert_eq!(n, ranks);
        for (rank, res) in report.results.iter().enumerate() {
            prop_assert!(res.is_ok(),
                "rank {} failed under restorable faults: {} (plan: {})",
                rank,
                res.as_ref().err().map(|e| e.to_string()).unwrap_or_default(),
                plan.faults.as_ref().unwrap().to_json());
        }
        // Spot-check the data against the analytic fault-free outcome.
        let want_bcast: Vec<i32> = (0..count as i32).map(|i| i * 13 - 7).collect();
        for (rank, res) in report.results.iter().enumerate() {
            let (bcast, _, mine, _) = res.as_ref().unwrap();
            prop_assert_eq!(bcast, &want_bcast, "bcast rank {}", rank);
            let want_scatter: Vec<i32> = (0..count as i32)
                .map(|i| (rank as i32 * count as i32 + i) * 5 - 9)
                .collect();
            prop_assert_eq!(mine, &want_scatter, "scatter rank {}", rank);
        }
    }
}
