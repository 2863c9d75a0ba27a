//! Pins the executor's poll *count* and the CK forward counts on the latency
//! path — one CKS forward at a packet's origin, one CKR forward per rank it
//! enters — the regression guard a noisy host cannot blur, where
//! `smi_benchmark`'s `pingpong_inmem` pins the clock.

use smi::prelude::*;

const ELEMS: usize = Datatype::Int.elems_per_packet();

enum Leg {
    Between,
    Sending(SendChannel<i32>, usize),
    Receiving(RecvChannel<i32>, usize),
}

/// One-packet messages bounced between two ranks: the initiator sends on
/// port 0 and awaits the echo on port 1, the peer mirrors it.
struct PingPong {
    ctx: SmiCtx,
    peer: usize,
    initiator: bool,
    trips_left: u32,
    leg: Leg,
    buf: [i32; ELEMS],
}

impl PingPong {
    fn send(&self) -> Result<Leg, SmiError> {
        let port = if self.initiator { 0 } else { 1 };
        let ch = self.ctx.open_send_channel(ELEMS as u64, self.peer, port)?;
        Ok(Leg::Sending(ch, 0))
    }

    fn recv(&self) -> Result<Leg, SmiError> {
        let port = if self.initiator { 1 } else { 0 };
        let ch = self.ctx.open_recv_channel(ELEMS as u64, self.peer, port)?;
        Ok(Leg::Receiving(ch, 0))
    }
}

impl RankTask for PingPong {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let mut progressed = false;
        let status = |progressed| match progressed {
            true => TaskStatus::Progress,
            false => TaskStatus::Pending,
        };
        while self.trips_left > 0 {
            self.leg = match std::mem::replace(&mut self.leg, Leg::Between) {
                Leg::Between if self.initiator => self.send()?,
                Leg::Between => self.recv()?,
                Leg::Sending(mut ch, mut off) => {
                    let moved = ch.try_push_slice(&self.buf[off..])?;
                    off += moved;
                    progressed |= moved > 0;
                    if !(off == ELEMS && ch.try_flush()? && ch.fully_sent()) {
                        self.leg = Leg::Sending(ch, off);
                        return Ok(status(progressed));
                    }
                    drop(ch);
                    if self.initiator {
                        self.recv()?
                    } else {
                        self.trips_left -= 1;
                        Leg::Between
                    }
                }
                Leg::Receiving(mut ch, mut filled) => {
                    let moved = ch.try_pop_slice(&mut self.buf[filled..])?;
                    filled += moved;
                    progressed |= moved > 0;
                    if filled < ELEMS {
                        self.leg = Leg::Receiving(ch, filled);
                        return Ok(status(progressed));
                    }
                    drop(ch);
                    if self.initiator {
                        self.trips_left -= 1;
                        Leg::Between
                    } else {
                        self.send()?
                    }
                }
            };
        }
        Ok(TaskStatus::Done)
    }
}

struct Bystander;

impl RankTask for Bystander {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        Ok(TaskStatus::Done)
    }
}

/// Rank 0 ↔ rank 7 on `bus(8)`, one worker: a round trip crosses 14 hops.
/// A packet leaves its origin through one CKS and enters 7 ranks through
/// one CKR each — a transit CKR writes the link of the next hop directly —
/// so 1 CKS + 7 CKR forwards per packet and 16 kernel polls that move it per
/// round trip. A kernel with no input costs nothing, a packet crosses the
/// chain of woken kernels in one sweep, and a kernel that drained its inputs
/// sleeps without a confirming idle poll: what is left on top is a few polls
/// of the two rank tasks, which stay runnable while they wait — 20 polls in
/// all, 90 % of them productive. A scanning executor spent 811 here; woken
/// kernels that each confirmed with an idle poll, on a path where a transit
/// rank relayed through CKR → its own CKS → the CKS mesh (20 forwards per
/// packet), spent 92; a transit CKR that handed the packet to the CKS of its
/// next hop (7 + 7 forwards), 32.
#[test]
fn pingpong_polls_per_round_trip_stay_within_budget() {
    const TRIPS: u32 = 2_000;
    let topo = Topology::bus(8);
    let ends = |a: usize, b: usize| {
        ProgramMeta::new()
            .with(OpSpec::send(a, Datatype::Int))
            .with(OpSpec::recv(b, Datatype::Int))
    };
    let metas: Vec<ProgramMeta> = (0..8)
        .map(|r| match r {
            0 => ends(0, 1),
            7 => ends(1, 0),
            _ => ProgramMeta::new(),
        })
        .collect();
    let factories: Vec<TaskFactory> = (0..8)
        .map(|r| {
            Box::new(move |ctx: SmiCtx| {
                Ok(match r {
                    0 | 7 => Box::new(PingPong {
                        ctx,
                        peer: 7 - r,
                        initiator: r == 0,
                        trips_left: TRIPS,
                        leg: Leg::Between,
                        buf: [r as i32; ELEMS],
                    }) as Box<dyn RankTask>,
                    _ => Box::new(Bystander),
                })
            }) as TaskFactory
        })
        .collect();
    let params = RuntimeParams {
        transport_workers: 1,
        ..RuntimeParams::default()
    };
    let report = run_mpmd_tasks(&topo, metas, factories, params).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    let [stats] = report.worker_stats[..] else {
        panic!("one worker: {:?}", report.worker_stats);
    };
    let per_trip = stats.polls as f64 / TRIPS as f64;
    let useful = stats.progress as f64 / stats.polls as f64;
    // `-- --nocapture` shows the reading the docs quote.
    println!("{per_trip:.1} polls per round trip, progress/polls = {useful:.3}");
    assert!(per_trip <= 21.0, "{per_trip:.1} polls per round trip");
    assert!(useful >= 0.85, "progress/polls = {useful:.3}");
    let (cks_forwards, ckr_forwards, unroutable) = report.transport;
    let delivered = 2 * TRIPS as u64;
    println!(
        "per delivered packet: {} CKS + {} CKR forwards",
        cks_forwards as f64 / delivered as f64,
        ckr_forwards as f64 / delivered as f64
    );
    assert_eq!(unroutable, 0);
    assert_eq!(cks_forwards, delivered, "one CKS forward, at the origin");
    assert_eq!(
        ckr_forwards,
        7 * delivered,
        "one CKR forward per rank entered"
    );
}
