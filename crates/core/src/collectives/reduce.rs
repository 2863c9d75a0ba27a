//! The reduce channel (`SMI_Open_reduce_channel` / `SMI_Reduce`) with
//! credit-based flow control (§4.4).

use smi_wire::reduce::SmiNumeric;
use smi_wire::{Frame, NetworkPacket, PacketOp, ReduceOp};

use crate::collectives::topology::WireEdges;
use crate::collectives::{CollectivePoll, CollectiveState};
use crate::comm::Communicator;
use crate::endpoint::{expect_op, BlockingStep, EndpointTableHandle, PortIo};
use crate::params::RuntimeParams;
use crate::{Protocol, SmiError};

/// A reduce channel (`SMI_RChannel`). Every member contributes `count`
/// elements; the reduced stream is produced at the root, exactly like the
/// paper's `data_rcv` that is "produced to the root rank".
///
/// Reduce needs no open handshake (the first credit window is implicitly
/// granted), so the poll-mode core starts in `Streaming`.
///
/// Every member is one combiner, like the fabric's reduce support kernel,
/// under both [`crate::CollectiveScheme`]s: the shape only names its parent
/// and children (`Linear`: the root parents every other member; `Tree`: the
/// hop tree of [`crate::collectives::topology`], so a partial aggregate
/// crosses one physical link per level on the regular topologies). One step
/// folds the member's own and its children's contributions into a `C`-slot
/// ring window, emits each element complete at all of them — into the
/// caller's `out` at the root, framed toward the parent within the upstream
/// credit window elsewhere — and grants the children (a leaf has none)
/// coalesced, tail-clamped credits (`window_grant`) at window boundaries.
pub struct ReduceChannel<T: SmiNumeric> {
    count: u64,
    port_wire: u8,
    op: ReduceOp,
    my_wire: u8,
    /// Wire rank of the tree parent (None at the root).
    parent: Option<u8>,
    /// Wire ranks of the direct contributors (linear root: every other
    /// member; tree: the hop-tree children; leaf: empty).
    children: Vec<u8>,
    /// Ring window of `credits_window` accumulation slots (`count`, if
    /// fewer).
    window: Vec<T>,
    /// Per-contributor element progress — slot 0 is the own stream, slot
    /// `1 + i` is `children[i]`.
    progress: Vec<u64>,
    /// Wire rank → contributor slot (1-based; children only).
    contrib_slot: Vec<Option<usize>>,
    /// Elements emitted: results returned to the caller (root), elements
    /// framed toward the parent (elsewhere).
    done: u64,
    /// Credit window size `C`.
    credits_window: u64,
    /// Elements this member may still emit: the upstream credits, or a
    /// window at the root, whose sink (the caller) never runs out.
    credits: u64,
    /// Credit granted to the children so far, the implicit first window
    /// included; tail-clamped, so it ends at `max(window, count)`.
    granted: u64,
    framer: smi_wire::Framer,
    state: CollectiveState,
    io: PortIo,
}

impl<T: SmiNumeric> ReduceChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        comm: &Communicator,
        count: u64,
        port: usize,
        edges: WireEdges,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let credit = Protocol::Credit {
            window: params.reduce_credits,
        };
        let credits_window = credit.window()?.expect("a credit protocol has a window");
        let io = PortIo::open(
            table,
            port,
            smi_codegen::OpKind::Reduce,
            T::DATATYPE,
            params,
        )?;
        let op = io.reduce_op().expect("reduce binding carries an operator");
        let WireEdges { parent, children } = edges;
        let mut contrib_slot = vec![None; smi_wire::MAX_RANKS];
        for (i, &w) in children.iter().enumerate() {
            contrib_slot[usize::from(w)] = Some(1 + i);
        }
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        Ok(ReduceChannel {
            count,
            port_wire,
            op,
            my_wire,
            parent,
            // A message shorter than a window needs a slot per element only.
            window: vec![identity_of::<T>(op); credits_window.min(count) as usize],
            progress: vec![0; 1 + children.len()],
            contrib_slot,
            children,
            done: 0,
            credits_window,
            credits: credits_window,
            granted: credits_window,
            framer: smi_wire::Framer::new(
                T::DATATYPE,
                my_wire,
                parent.unwrap_or(my_wire),
                port_wire,
                PacketOp::Reduce,
            ),
            state: if count == 0 {
                CollectiveState::Done
            } else {
                CollectiveState::Streaming
            },
            io,
        })
    }

    /// Non-blocking bulk `SMI_Reduce`.
    ///
    /// `snd` and `out` are parallel views of the *remaining* message: `snd`
    /// holds this member's next contributions, and (at the root) `out`
    /// receives the corresponding reduced results. Returns how many
    /// elements completed this call — contributions accepted at a non-root
    /// member, results written at the root — and the caller advances both
    /// slices by that amount. At the root, `out` must be at least as long
    /// as `snd` (the root may internally fold contributions ahead of the
    /// completed results, bounded by the credit window; the cursor is kept
    /// across calls).
    pub fn try_reduce_slice(&mut self, snd: &[T], out: &mut [T]) -> Result<usize, SmiError> {
        if snd.len() as u64 > self.count - self.consumed() {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        self.step(snd, out)
    }

    /// The combiner's one step, run by every call and poll: fold the head
    /// of `snd` (this member's contributions from the caller's cursor on)
    /// and every child contribution that arrived, emit what is complete,
    /// flush, and update the state. `out` is the root's sink: its head
    /// receives the results from the cursor on. Returns how far the cursor
    /// moved ([`ReduceChannel::progressed`]).
    fn step(&mut self, snd: &[T], out: &mut [T]) -> Result<usize, SmiError> {
        let base = self.consumed();
        if self.state == CollectiveState::Streaming {
            if self.credits == 0 {
                self.absorb_credits()?;
            }
            self.fold_own(snd, base);
            self.fold_network()?;
            self.emit(out, base)?;
        }
        let flushed = self.io.try_flush()?;
        if self.state == CollectiveState::Streaming
            && self.done == self.count
            && flushed
            && self.framer.pending() == 0
        {
            self.state = CollectiveState::Done;
        }
        Ok((self.consumed() - base) as usize)
    }

    /// How far the caller-facing cursor has advanced — results at the
    /// root, own contributions folded elsewhere. This is what bounds further
    /// `snd` slices (the root's own-fold cursor may run ahead of the
    /// results by up to a window, but the caller's slices track results).
    fn consumed(&self) -> u64 {
        match self.parent {
            None => self.done,
            Some(_) => self.progress[0],
        }
    }

    /// Fold own contributions, `snd[0]` being element `base`, no further
    /// than this member may emit (the cursor `progress[0]` survives across
    /// calls, so re-passed elements are never folded twice).
    fn fold_own(&mut self, snd: &[T], base: u64) {
        let c = self.credits_window;
        let end = (self.done + self.credits).min(base + snd.len() as u64);
        for at in self.progress[0]..end {
            let s = (at % c) as usize;
            self.window[s] = self.op.apply(self.window[s], snd[(at - base) as usize]);
        }
        self.progress[0] = self.progress[0].max(end);
    }

    /// Fold the children's contributions that arrived into the window. A
    /// member that completed this message may already stream the port's
    /// next one under its implicit first window, to this member even if it
    /// is not a child here (the next message may have another root): a
    /// packet from a non-child, or from a child past its `count`, is held
    /// for the next open (senders flush at the message end, so no packet
    /// straddles two messages). A packet that runs past the credit granted
    /// or past `count` is a protocol violation, found before any of it is
    /// folded: its slots may still belong to other elements.
    fn fold_network(&mut self) -> Result<(), SmiError> {
        let c = self.credits_window;
        while let Some(frame) = self.io.try_recv_data_frame()? {
            let pkt = match frame {
                Frame::Pkt(p) => p,
                Frame::Run(r) => {
                    return Err(SmiError::ProtocolViolation {
                        detail: format!("a {:?} run at a reduce member", r.header.op),
                    })
                }
            };
            expect_op(&pkt.header, PacketOp::Reduce)?;
            let src = pkt.header.src;
            let slot = self.contrib_slot[usize::from(src)];
            let Some(slot) = slot.filter(|&s| self.progress[s] < self.count) else {
                self.io.hold(pkt.into());
                continue;
            };
            let at = self.progress[slot];
            let end = at + u64::from(pkt.header.count);
            if end > self.granted.min(self.count) {
                return Err(SmiError::ProtocolViolation {
                    detail: format!(
                        "reduce contribution from world rank {src} runs to element {end}, \
                         past the {} granted of count {}",
                        self.granted, self.count
                    ),
                });
            }
            for (i, at) in (at..end).enumerate() {
                let s = (at % c) as usize;
                self.window[s] = self.op.apply(self.window[s], pkt.read_elem::<T>(i));
            }
            self.progress[slot] = end;
        }
        Ok(())
    }

    /// Emit the elements complete at every contributor, a ring span at a
    /// time, into the one sink the member has: the head of `out` from the
    /// cursor `base` on at the root, the framer toward the parent within
    /// the upstream credits elsewhere. Each emitted slot is reset for the
    /// element a window later, and every window boundary crossed grants
    /// the children (§4.4).
    fn emit(&mut self, out: &mut [T], base: u64) -> Result<(), SmiError> {
        let c = self.credits_window;
        let ready = *self.progress.iter().min().expect("the own stream");
        let mut grant = 0u64;
        while self.done < ready {
            let s = (self.done % c) as usize;
            let mut k = (ready - self.done).min(c - s as u64) as usize;
            if self.parent.is_none() {
                let to = &mut out[(self.done - base) as usize..];
                k = k.min(to.len());
                if k == 0 {
                    break;
                }
                to[..k].copy_from_slice(&self.window[s..s + k]);
            } else {
                if self.io.stage_full() && !self.io.try_flush()? {
                    break;
                }
                // The own fold ran no further than the credits allow, so
                // the span fits them.
                let (take, mut pkt) = self.framer.push_slice(&self.window[s..s + k]);
                k = take;
                self.credits -= k as u64;
                // A packet ends at an upstream window's end or the
                // message's: upstream grants are window-aligned, so no
                // packet straddles the parent's window tile (matching the
                // fabric support kernel).
                if self.credits == 0 || self.done + k as u64 == self.count {
                    pkt = pkt.or_else(|| self.framer.flush());
                }
                if let Some(p) = pkt {
                    self.io.stage(p);
                }
            }
            self.window[s..s + k].fill(identity_of::<T>(self.op));
            self.done += k as u64;
            grant += self.window_grant();
        }
        self.stage_grants(grant);
        Ok(())
    }

    /// Claim every credit grant counted so far, without blocking. A grant
    /// pushing the total allowance past the message tail is a protocol
    /// violation (a correct granter clamps the last window — see
    /// `window_grant`).
    fn absorb_credits(&mut self) -> Result<(), SmiError> {
        self.credits += self.io.claim_grants(usize::MAX)?.unwrap_or(0);
        if self.done + self.credits > self.count.max(self.credits_window) {
            return Err(SmiError::ProtocolViolation {
                detail: format!(
                    "reduce credit over-grant: {} done + {} credits exceeds count {}",
                    self.done, self.credits, self.count
                ),
            });
        }
        Ok(())
    }

    /// The grant due once `done` elements completed: a window at each
    /// window boundary, clamped so the total granted never exceeds the
    /// message count — the tail-window rule.
    fn window_grant(&mut self) -> u64 {
        if !self.done.is_multiple_of(self.credits_window) {
            return 0;
        }
        let left = self.count.saturating_sub(self.granted);
        let grant = self.credits_window.min(left);
        self.granted += grant;
        grant
    }

    /// Stage coalesced, tail-clamped credit grants accrued since the last
    /// staging — one `Credit` packet per child (§4.4). The wire carries a
    /// 32-bit credit argument, so a coalesced grant beyond `u32::MAX` is
    /// split into multiple packets instead of silently truncating.
    fn stage_grants(&mut self, grant: u64) {
        let mut left = grant;
        while left > 0 {
            let chunk = left.min(u32::MAX as u64);
            for &dst in &self.children {
                let pkt = NetworkPacket::control(
                    self.my_wire,
                    dst,
                    self.port_wire,
                    PacketOp::Credit,
                    chunk as u32,
                );
                self.io.stage(pkt);
            }
            left -= chunk;
        }
    }

    /// Bulk `SMI_Reduce`, blocking until every element of `snd` completed.
    /// At the root, `out` must be the same length as `snd` and receives the
    /// reduced stream; elsewhere `out` is ignored (may be empty). A call
    /// that completes this member's whole contribution additionally drives
    /// the channel to `Done` — a member keeps emitting (and an interior one
    /// folding its children's streams) after its own contribution is
    /// consumed, and returning earlier would strand the subtree when the
    /// caller drops the channel.
    pub fn reduce_slice(&mut self, snd: &[T], out: &mut [T]) -> Result<(), SmiError> {
        if snd.len() as u64 > self.count - self.consumed() {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        if self.parent.is_none() && out.len() < snd.len() {
            return Err(SmiError::ProtocolViolation {
                detail: "reduce_slice at the root needs out.len() >= snd.len()".into(),
            });
        }
        let mut off = 0usize;
        self.io.wait().on("reduce progress", || {
            let done_before = self.done;
            let moved = self.step(&snd[off..], out.get_mut(off..).unwrap_or_default())?;
            off += moved;
            let finished = if self.consumed() < self.count {
                self.io.flushed()
            } else {
                self.state == CollectiveState::Done
            };
            if off == snd.len() && finished {
                return Ok(BlockingStep::Ready(()));
            }
            Ok(if moved > 0 || self.done > done_before {
                BlockingStep::Progress
            } else {
                BlockingStep::Pending
            })
        })
    }

    /// `SMI_Reduce`: contribute `*snd`; returns `Some(result)` at the root,
    /// `None` elsewhere. Blocking form.
    pub fn reduce(&mut self, snd: &T) -> Result<Option<T>, SmiError> {
        let contrib = [*snd];
        let mut out = [*snd];
        self.reduce_slice(&contrib, &mut out)?;
        Ok(self.parent.is_none().then_some(out[0]))
    }

    /// Elements reduced (root) or contributed (non-root) so far.
    pub fn progressed(&self) -> u64 {
        self.consumed()
    }
}

impl<T: SmiNumeric> Drop for ReduceChannel<T> {
    fn drop(&mut self) {
        let completed = self.state == CollectiveState::Done;
        self.io.check_grants_claimed(completed);
    }
}

impl<T: SmiNumeric> CollectivePoll for ReduceChannel<T> {
    fn poll(&mut self) -> Result<CollectiveState, SmiError> {
        self.step(&[], &mut [])?;
        Ok(self.state)
    }

    fn state(&self) -> CollectiveState {
        self.state
    }
}

fn identity_of<T: SmiNumeric>(op: ReduceOp) -> T {
    match op {
        ReduceOp::Add => T::ZERO,
        ReduceOp::Max => T::MIN_VALUE,
        ReduceOp::Min => T::MAX_VALUE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{CksLanes, EndpointTable, EndpointTableHandle, PacketRx, PortRes};
    use crate::transport::link::{burst_queue, LinkSend, QueueTx};
    use crate::transport::socket::FabricHealth;
    use crate::transport::CopyMeter;
    use parking_lot::Mutex;
    use smi_codegen::OpSpec;
    use smi_wire::{Datatype, Framer, PacketRun};
    use std::sync::Arc;

    /// A rank's table holding one reduce port whose delivery the test
    /// fills; `meter` counts every payload copy of the rank.
    fn port(meter: &CopyMeter) -> (QueueTx, EndpointTableHandle) {
        let op = OpSpec::reduce(0, Datatype::Int, ReduceOp::Add);
        let (deliver, data_rx) = burst_queue(4);
        let (lane, _) = crossbeam::channel::bounded(4);
        let rx = PacketRx::new(data_rx, meter.clone());
        let res = PortRes::new(&op, CksLanes::loopback(Box::new(lane)), Some(rx));
        let mut table = EndpointTable::with_health(FabricHealth::default(), meter.clone());
        table.put(0, op.kind, res);
        (deliver, Arc::new(Mutex::new(table)))
    }

    /// Member `me` of `[0, 1, 2]` with `edges` on `table`, with window
    /// `window` over a `count`-element `Add` message.
    fn open(
        table: &EndpointTableHandle,
        me: usize,
        edges: WireEdges,
        window: u64,
        count: u64,
    ) -> ReduceChannel<i32> {
        let params = RuntimeParams {
            reduce_credits: window,
            ..RuntimeParams::default()
        };
        let comm = Communicator::of_members(vec![0, 1, 2], me);
        ReduceChannel::open(table.clone(), &comm, count, 0, edges, &params).unwrap()
    }

    /// The root (wire rank 0) of a message whose one child is wire rank 1.
    fn root(window: u64, count: u64, meter: &CopyMeter) -> (QueueTx, ReduceChannel<i32>) {
        let (deliver, table) = port(meter);
        let edges = WireEdges {
            parent: None,
            children: vec![1],
        };
        (deliver, open(&table, 0, edges, window, count))
    }

    fn push(deliver: &QueueTx, burst: Vec<Frame>) {
        assert!(matches!(deliver.push(burst), LinkSend::Accepted));
    }

    /// Deliver `frame` to the channel and run one call: it must fail with a
    /// protocol violation.
    fn rejects(deliver: &QueueTx, ch: &mut ReduceChannel<i32>, frame: Frame) {
        push(deliver, vec![frame]);
        let err = ch.try_reduce_slice(&[1], &mut [0]).unwrap_err();
        assert!(matches!(err, SmiError::ProtocolViolation { .. }), "{err:?}");
    }

    /// `src`'s contribution to `dst` of `n` elements from its first, as
    /// one packet.
    fn contribution(src: u8, dst: u8, n: usize) -> Frame {
        let mut framer = Framer::new(Datatype::Int, src, dst, 0, PacketOp::Reduce);
        let values: Vec<i32> = (0..n as i32).collect();
        let (_, full) = framer.push_slice(&values);
        full.or_else(|| framer.flush()).expect("a packet").into()
    }

    /// A packet past the window granted, or past the message's count, fails
    /// the call before anything of it is folded: its slots may still
    /// belong to other elements.
    #[test]
    fn a_contribution_past_its_credit_window_is_a_protocol_violation() {
        let meter = CopyMeter::default();
        let (deliver, mut ch) = root(4, 16, &meter);
        rejects(&deliver, &mut ch, contribution(1, 0, 7));
        assert_eq!(ch.window, [1, 0, 0, 0], "only the own element was folded");
        let (deliver, mut ch) = root(8, 3, &meter);
        rejects(&deliver, &mut ch, contribution(1, 0, 5));
    }

    /// A member reads its children's contributions as inline packets: a
    /// `Reduce` run fails the call, and nothing of it is copied.
    #[test]
    fn a_reduce_run_at_a_member_is_a_protocol_violation() {
        let meter = CopyMeter::default();
        let (deliver, mut ch) = root(4, 16, &meter);
        let run = PacketRun::from_elems(1, 0, 0, PacketOp::Reduce, &[1i32; 16]);
        rejects(&deliver, &mut ch, Frame::Run(run));
        assert_eq!(meter.count(), 0);
    }

    /// A member may receive the port's next message while it still runs
    /// this one, from a rank that is only its child there (the next
    /// message has another root): the member holds it, and the next open
    /// folds it. Member 1 is the root of both messages here, with child 0
    /// and then child 2.
    #[test]
    fn a_non_childs_contribution_waits_for_the_next_open() {
        let (deliver, table) = port(&CopyMeter::default());
        let root_of = |child| WireEdges {
            parent: None,
            children: vec![child],
        };
        let mut ch = open(&table, 1, root_of(0), 4, 3);
        push(&deliver, vec![contribution(2, 1, 3), contribution(0, 1, 3)]);
        let mut out = [0; 3];
        assert_eq!(ch.try_reduce_slice(&[1; 3], &mut out).unwrap(), 3);
        assert_eq!(
            (out, ch.poll().unwrap()),
            ([1, 2, 3], CollectiveState::Done)
        );
        drop(ch);
        let mut ch = open(&table, 1, root_of(2), 4, 3);
        assert_eq!(ch.try_reduce_slice(&[10; 3], &mut out).unwrap(), 3);
        assert_eq!(out, [10, 11, 12]);
    }

    /// The grants a root with window `window` makes over a `count`-element
    /// message as its completed elements reach `upto`.
    fn grants(window: u64, count: u64, upto: u64) -> Vec<u64> {
        let (_, mut ch) = root(window, count, &CopyMeter::default());
        let mut grant = |done| {
            ch.done = done;
            ch.window_grant()
        };
        (1..=upto).map(&mut grant).filter(|&g| g > 0).collect()
    }

    /// Grants come at window boundaries only and are clamped to the
    /// message tail, so the total granted is `max(window, count)` exactly:
    /// 4-element windows over 10 elements grant 4, then 2, then nothing,
    /// and a count below one window never puts a grant on the wire.
    #[test]
    fn grants_clamp_to_the_message_tail() {
        assert_eq!(grants(4, 10, 12), [4, 2]);
        assert_eq!(grants(8, 3, 8), [0u64; 0]);
    }
}
