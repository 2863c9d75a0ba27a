//! Transport-backend sweep: the same workloads over the in-memory burst
//! FIFOs, Unix-domain sockets, and loopback TCP, emitted as
//! `BENCH_transport.json` so every CI run leaves a cross-backend data
//! point.
//!
//! Three workloads per backend, all on a 4-rank bus split half/half into
//! two socket-joined groups (the in-memory point keeps one group and is
//! the baseline the sockets are measured against):
//!
//! * `p2p` — disjoint pairs `0 → 2`, `1 → 3` (both streams cross the
//!   process boundary) using bulk `push_slice`/`pop_slice`.
//! * `bcast` — rooted broadcast of the whole payload.
//! * `reduce` — rooted elementwise-add reduction of the whole payload.
//!
//! Every point carries the run's wire counters (syscalls, bytes,
//! bytes-per-syscall, pool hits/misses, corked frames), so a wall-time
//! change can be read against the syscall amortization behind it.
//!
//! Usage: `bench_transport [--quick|--smoke | --full] [--out PATH]`

use std::time::Instant;

use smi::env::SmiCtx;
use smi::prelude::*;
use smi::WireSnapshot;

const RANKS: usize = 4;
const NPROC: usize = 2;

/// One measured point.
struct Point {
    series: String,
    backend: &'static str,
    ranks: usize,
    nproc: usize,
    elems: u64,
    seconds: f64,
    melem_per_s: f64,
    wire: WireSnapshot,
}

fn plan_for(backend: TransportBackend) -> ProcessPlan {
    let topo = Topology::bus(RANKS);
    let nproc = if backend == TransportBackend::InMem {
        1
    } else {
        NPROC
    };
    ProcessPlan::split(&topo, backend, nproc)
}

/// Disjoint pairs 0 → 2 and 1 → 3: with the half/half split every element
/// crosses the inter-group link. Returns (seconds, wire counters).
fn run_p2p(backend: TransportBackend, n: u64) -> (f64, WireSnapshot) {
    let plan = plan_for(backend);
    let metas: Vec<ProgramMeta> = (0..RANKS)
        .map(|r| {
            if r < 2 {
                ProgramMeta::new().with(OpSpec::send(0, Datatype::Int))
            } else {
                ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int))
            }
        })
        .collect();
    let programs: Vec<Box<dyn FnOnce(SmiCtx) -> bool + Send>> = (0..RANKS)
        .map(|r| {
            let b: Box<dyn FnOnce(SmiCtx) -> bool + Send> = if r < 2 {
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_send_channel::<i32>(n, r + 2, 0).unwrap();
                    let data: Vec<i32> = (0..n as i32).collect();
                    ch.push_slice(&data).unwrap();
                    true
                })
            } else {
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_recv_channel::<i32>(n, r - 2, 0).unwrap();
                    let mut buf = vec![0i32; n as usize];
                    ch.pop_slice(&mut buf).unwrap();
                    buf.iter().enumerate().all(|(i, &v)| v == i as i32)
                })
            };
            b
        })
        .collect();
    let t = Instant::now();
    let report = run_split_mpmd(&plan, metas, programs, RuntimeParams::default()).expect("launch");
    let dt = t.elapsed().as_secs_f64();
    assert!(report.results.iter().all(|&ok| ok), "data corrupted");
    (dt, report.wire_stats)
}

/// Rooted collective (bcast or reduce) of `n` elements. Returns
/// (seconds, wire counters).
fn run_collective(backend: TransportBackend, n: u64, reduce: bool) -> (f64, WireSnapshot) {
    let plan = plan_for(backend);
    let meta = if reduce {
        ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Int, ReduceOp::Add))
    } else {
        ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int))
    };
    let t = Instant::now();
    let report = run_split_spmd(
        &plan,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let rank = comm.rank();
            if reduce {
                let contrib: Vec<i32> = (0..n as i32).map(|i| i + rank as i32).collect();
                let mut out = vec![0i32; n as usize];
                let mut ch = ctx.open_reduce_channel::<i32>(n, 0, 0, &comm).unwrap();
                ch.reduce_slice(&contrib, &mut out).unwrap();
                rank != 0
                    || out
                        .iter()
                        .enumerate()
                        .all(|(i, &v)| v as usize == 4 * i + 6)
            } else {
                let mut buf: Vec<i32> = if rank == 0 {
                    (0..n as i32).collect()
                } else {
                    vec![0; n as usize]
                };
                let mut ch = ctx.open_bcast_channel::<i32>(n, 0, 0, &comm).unwrap();
                ch.bcast_slice(&mut buf).unwrap();
                buf.iter().enumerate().all(|(i, &v)| v == i as i32)
            }
        },
        RuntimeParams::default(),
    )
    .expect("launch");
    let dt = t.elapsed().as_secs_f64();
    assert!(report.results.iter().all(|&ok| ok), "data corrupted");
    (dt, report.wire_stats)
}

fn main() {
    let mut effort = smi_bench::Effort::from_args();
    let mut out_path = String::from("BENCH_transport.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--smoke" => effort = smi_bench::Effort::Quick,
            _ => {}
        }
    }
    smi_bench::banner(
        "bench_transport — p2p and collective throughput per transport backend",
        "in-memory FIFOs vs Unix-domain sockets vs loopback TCP",
    );

    let n: u64 = match effort {
        smi_bench::Effort::Quick => 64 << 10,
        smi_bench::Effort::Normal => 1 << 20,
        smi_bench::Effort::Full => 4 << 20,
    };

    let backends = [
        TransportBackend::InMem,
        TransportBackend::Uds,
        TransportBackend::Tcp,
    ];
    let mut points: Vec<Point> = Vec::new();
    println!(
        "{:<20} {:>8} {:>6} {:>6} {:>10} {:>10} {:>9} {:>11}",
        "series", "backend", "ranks", "procs", "elems", "seconds", "Melem/s", "B/syscall"
    );
    for backend in backends {
        let nproc = if backend == TransportBackend::InMem {
            1
        } else {
            NPROC
        };
        type Workload = Box<dyn Fn() -> ((f64, WireSnapshot), u64)>;
        let workloads: Vec<(String, Workload)> = vec![
            (
                format!("p2p_{}", backend.name()),
                Box::new(move || (run_p2p(backend, n), 2 * n)),
            ),
            (
                format!("bcast_{}", backend.name()),
                Box::new(move || (run_collective(backend, n, false), n)),
            ),
            (
                format!("reduce_{}", backend.name()),
                Box::new(move || (run_collective(backend, n, true), n)),
            ),
        ];
        for (series, run) in workloads {
            let ((dt, wire), total) = run();
            let melem = total as f64 / dt / 1e6;
            println!(
                "{:<20} {:>8} {:>6} {:>6} {:>10} {:>10.3} {:>9.2} {:>11.0}",
                series,
                backend.name(),
                RANKS,
                nproc,
                n,
                dt,
                melem,
                wire.send_bytes_per_syscall()
            );
            points.push(Point {
                series,
                backend: backend.name(),
                ranks: RANKS,
                nproc,
                elems: n,
                seconds: dt,
                melem_per_s: melem,
                wire,
            });
        }
    }

    // Hand-rolled JSON: flat, stable, diff-friendly.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"benchmark\": \"bench_transport\",\n  \"effort\": \"{:?}\",\n  \"available_parallelism\": {},\n",
        effort,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"series\": \"{}\", \"backend\": \"{}\", \"ranks\": {}, \"nproc\": {}, \"elems\": {}, \"seconds\": {:.6}, \"melem_per_s\": {:.3}, \"send_syscalls\": {}, \"send_bytes\": {}, \"recv_syscalls\": {}, \"recv_bytes\": {}, \"bytes_per_syscall\": {:.1}, \"pool_hits\": {}, \"pool_misses\": {}, \"corked_frames\": {}}}{}\n",
            p.series,
            p.backend,
            p.ranks,
            p.nproc,
            p.elems,
            p.seconds,
            p.melem_per_s,
            p.wire.send_syscalls,
            p.wire.send_bytes,
            p.wire.recv_syscalls,
            p.wire.recv_bytes,
            p.wire.send_bytes_per_syscall(),
            p.wire.pool_hits,
            p.wire.pool_misses,
            p.wire.corked_frames,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write JSON");
    println!("\nwrote {out_path}");
}
