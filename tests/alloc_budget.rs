//! Allocations per delivered packet on the CKR → delivery path: a counting
//! global allocator (its own test binary, since a `#[global_allocator]` is
//! per binary; std only) around two in-memory jobs on one worker, read as
//! the marginal from the smallest size to the largest, so setup and
//! teardown cancel out.
//!
//! - A `bus(32)` tree broadcast of 400, 800 and 1 600 packets: a machine or
//!   endpoint reuses its own burst buffers, and a queue trades every burst
//!   it takes for a spare its consumer handed back, so a multicast hop
//!   allocates nothing. While every hop handed a fresh `Vec` per burst on,
//!   it read 2 471 allocations over 37 200 more delivered packets (0.0664);
//!   the gate allows a fifth of that, and it reads 215–217 (0.0058).
//! - All-pairs p2p on `bus(5)`, 400, 800 and 1 600 packets in all: the
//!   endpoint lanes still take one buffer per burst from their endpoint, so
//!   the gate holds the reading from before the queues traded buffers, 222
//!   allocations over 1 200 more packets (0.1850), which it still reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use smi::prelude::*;

/// Counts every trip to the system allocator that returns memory.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const EPP: usize = Datatype::Int.elems_per_packet();

/// Packets per broadcast message: 400, 800 and 1 600, each delivered 31
/// times.
const BCAST_PACKETS: [usize; 3] = [400, 800, 1_600];

/// Packets per all-pairs stream: 400, 800 and 1 600 delivered in all.
const STREAM_PACKETS: [usize; 3] = [20, 40, 80];

/// Bound on the tree broadcast's marginal: a fifth of the 2 471 allocations
/// per 37 200 delivered packets that one fresh `Vec` per burst per hop read.
const BCAST_BUDGET: f64 = 0.2 * 2_471.0 / 37_200.0;

/// Bound on the all-pairs marginal: the 222 allocations per 1 200 delivered
/// packets read while every queue handed its burst's `Vec` on.
const P2P_BUDGET: f64 = 222.0 / 1_200.0;

fn one_worker() -> RuntimeParams {
    RuntimeParams {
        collective_scheme: CollectiveScheme::Tree,
        transport_workers: 1,
        ..RuntimeParams::default()
    }
}

/// One member of a broadcast from rank 0 on port 0.
struct Member {
    ch: BcastChannel<i32>,
    buf: Vec<i32>,
    off: usize,
}

impl RankTask for Member {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let moved = self.ch.try_bcast_slice(&mut self.buf[self.off..])?;
        self.off += moved;
        if self.off == self.buf.len() && self.ch.poll()? == CollectiveState::Done {
            return Ok(TaskStatus::Done);
        }
        Ok(if moved > 0 {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

/// A `packets`-packet broadcast on `bus(32)`: allocations made, packets
/// delivered (31 receivers).
fn bcast(packets: usize) -> (u64, u64) {
    let n = 32;
    let count = packets * EPP;
    let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int));
    let factories: Vec<TaskFactory> = (0..n)
        .map(|rank| {
            Box::new(move |ctx: SmiCtx| {
                let world = ctx.world();
                let ch = ctx.open_bcast_channel_poll(count as u64, 0, 0, &world)?;
                let buf = match rank {
                    0 => (0..count as i32).collect(),
                    _ => vec![0; count],
                };
                Ok(Box::new(Member { ch, buf, off: 0 }) as Box<dyn RankTask>)
            }) as TaskFactory
        })
        .collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = run_mpmd_tasks(&Topology::bus(n), vec![meta; n], factories, one_worker());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let report = report.unwrap();
    assert!(
        report.results.iter().all(Result::is_ok),
        "{:?}",
        report.results
    );
    (allocs, (packets * (n - 1)) as u64)
}

/// The port of stream `src → dst` on `n` ranks.
fn port(src: usize, dst: usize, n: usize) -> usize {
    (dst + n - src) % n
}

/// One rank's half of an all-pairs exchange.
struct AllPairs {
    sends: Vec<(SendChannel<i32>, usize)>,
    recvs: Vec<(RecvChannel<i32>, usize)>,
    data: Vec<i32>,
    buf: Vec<i32>,
}

impl RankTask for AllPairs {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let mut moved = 0;
        for (ch, off) in &mut self.sends {
            let n = ch.try_push_slice(&self.data[*off..])?;
            (*off, moved) = (*off + n, moved + n);
        }
        let count = self.data.len();
        let mut i = 0;
        while i < self.sends.len() {
            let (ch, off) = &mut self.sends[i];
            if *off == count && ch.try_flush()? && ch.fully_sent() {
                self.sends.swap_remove(i);
            } else {
                i += 1;
            }
        }
        for (ch, got) in &mut self.recvs {
            let n = ch.try_pop_slice(&mut self.buf[..count - *got])?;
            assert!(self.buf[..n].iter().all(|&v| v == 7));
            (*got, moved) = (*got + n, moved + n);
        }
        self.recvs.retain(|(_, got)| *got < count);
        if self.sends.is_empty() && self.recvs.is_empty() {
            return Ok(TaskStatus::Done);
        }
        Ok(if moved > 0 {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

/// All-pairs p2p on `bus(5)`, `packets` packets per stream: allocations
/// made, packets delivered.
fn all_pairs(packets: usize) -> (u64, u64) {
    let n = 5;
    let count = packets * EPP;
    let meta = (1..n).fold(ProgramMeta::new(), |m, p| {
        m.with(OpSpec::send(p, Datatype::Int))
            .with(OpSpec::recv(p, Datatype::Int))
    });
    let factories: Vec<TaskFactory> = (0..n)
        .map(|rank| {
            Box::new(move |ctx: SmiCtx| {
                let mut task = AllPairs {
                    sends: Vec::new(),
                    recvs: Vec::new(),
                    data: vec![7; count],
                    buf: vec![0; count],
                };
                for peer in (0..n).filter(|&p| p != rank) {
                    let (out, inn) = (port(rank, peer, n), port(peer, rank, n));
                    let send = ctx.open_send_channel(count as u64, peer, out)?;
                    task.sends.push((send, 0));
                    let recv = ctx.open_recv_channel(count as u64, peer, inn)?;
                    task.recvs.push((recv, 0));
                }
                Ok(Box::new(task) as Box<dyn RankTask>)
            }) as TaskFactory
        })
        .collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = run_mpmd_tasks(&Topology::bus(n), vec![meta; n], factories, one_worker());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let report = report.unwrap();
    assert!(
        report.results.iter().all(Result::is_ok),
        "{:?}",
        report.results
    );
    (allocs, (packets * n * (n - 1)) as u64)
}

/// Marginal allocations per delivered packet from the first of `sizes` to
/// the last. Each size reads the fewest of three runs: a worker that parks
/// or wakes at another moment can add an allocation or two, never remove
/// one.
fn marginal(name: &str, sizes: [usize; 3], run: impl Fn(usize) -> (u64, u64)) -> f64 {
    run(sizes[0]); // warm: first-use allocations of the process
    let fewest = |s| (0..3).map(|_| run(s)).min().expect("three runs");
    let readings: Vec<(u64, u64)> = sizes.iter().map(|&s| fewest(s)).collect();
    let per = |a: usize, b: usize| {
        let (allocs, delivered) = (readings[b].0 as f64, readings[b].1 as f64);
        (allocs - readings[a].0 as f64) / (delivered - readings[a].1 as f64)
    };
    // `-- --nocapture` shows the readings the docs quote.
    println!(
        "{name}: {readings:?} (allocations, delivered packets); marginal per delivered \
         packet {:.4} / {:.4} / {:.4} (first→second, second→third, first→third)",
        per(0, 1),
        per(1, 2),
        per(0, 2)
    );
    per(0, 2)
}

/// One test for both jobs: the counter is process-wide, and a second test
/// thread (starting, or formatting a failure) would count into it.
#[test]
fn delivered_packets_cost_no_allocation_per_burst() {
    let bcast = marginal("bus(32) tree bcast", BCAST_PACKETS, bcast);
    let p2p = marginal("bus(5) all-pairs p2p", STREAM_PACKETS, all_pairs);
    assert!(
        bcast <= BCAST_BUDGET && p2p <= P2P_BUDGET,
        "allocations per delivered packet: tree bcast {bcast:.4} (budget {BCAST_BUDGET:.4}), \
         all-pairs p2p {p2p:.4} (budget {P2P_BUDGET:.4})"
    );
}
