//! The reduce channel (`SMI_Open_reduce_channel` / `SMI_Reduce`) with
//! credit-based flow control (§4.4).

use smi_wire::reduce::SmiNumeric;
use smi_wire::{Deframer, NetworkPacket, PacketOp, ReduceOp};

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
/// Both [`crate::CollectiveScheme`]s share one code path, parameterized by the
/// shape's parent/children relations (`Tree` is the hop tree of
/// [`crate::collectives::topology`], so a partial aggregate crosses one
/// physical link per level on the regular topologies):
///
/// * a **leaf** (no children) frames contributions within its granted
///   window and stages packet bursts toward its parent — in the linear
///   scheme that parent is the root, preserving the pre-tree protocol;
/// * a **combiner** (any node with children: the linear/tree root, or a
///   tree interior node) folds its own and its children's contributions
///   into a `C`-slot ring window, emits each completed element — to the
///   caller at the root, or framed upward within the *upstream* credit
///   window at an interior node — and grants its children coalesced,
///   tail-clamped credits (`window_grant`) at window boundaries.
pub struct ReduceChannel<T: SmiNumeric> {
    count: u64,
    port_wire: u8,
    op: ReduceOp,
    my_wire: u8,
    is_root: bool,
    /// Wire rank of the tree parent (None at the root).
    parent: Option<u8>,
    /// Wire ranks of the direct contributors (linear root: every other
    /// member; tree: the hop-tree children; leaf: empty).
    children: Vec<u8>,
    /// Combiner: ring window of `credits_window` accumulation slots.
    window: Vec<T>,
    /// Combiner: per-contributor element progress — slot 0 is the own
    /// stream, slot `1 + i` is `children[i]`.
    progress: Vec<u64>,
    /// Wire rank → contributor slot (1-based; children only).
    contrib_slot: Vec<Option<usize>>,
    /// Elements completed at this node: results returned to the caller
    /// (root), elements framed upward (interior), contributions consumed
    /// (leaf).
    done: u64,
    /// Credit window size `C`.
    credits_window: u64,
    /// Non-root: remaining upstream credits (elements this node may still
    /// emit toward its parent).
    credits: u64,
    /// Combiner: credit granted downstream so far, the implicit first
    /// window included; tail-clamped, so it ends at `max(window, count)`.
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
        let is_root = parent.is_none();
        let mut contrib_slot = vec![None; smi_wire::MAX_RANKS];
        for (i, &w) in children.iter().enumerate() {
            contrib_slot[usize::from(w)] = Some(1 + i);
        }
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        let ident = identity_of::<T>(op);
        // The root always runs the windowed combiner path, even for a
        // single-member communicator with no children.
        let is_combiner = is_root || !children.is_empty();
        Ok(ReduceChannel {
            count,
            port_wire,
            op,
            my_wire,
            is_root,
            parent,
            window: if is_combiner {
                vec![ident; credits_window as usize]
            } else {
                Vec::new()
            },
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

    /// Interior combiner: folds children *and* forwards upward.
    #[inline]
    fn is_interior(&self) -> bool {
        self.parent.is_some() && !self.children.is_empty()
    }

    /// One non-blocking step: retry staged packets, run the interior
    /// combine-and-forward duty, and update the state.
    fn advance(&mut self) -> Result<bool, SmiError> {
        let mut flushed = self.io.try_flush()?;
        if self.is_interior() && self.state == CollectiveState::Streaming {
            self.pump_interior()?;
            flushed = self.io.try_flush()?;
        }
        if self.state == CollectiveState::Streaming
            && self.done == self.count
            && flushed
            && self.framer.pending() == 0
        {
            self.state = CollectiveState::Done;
        }
        Ok(flushed)
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
        if self.is_root {
            self.try_reduce_root(snd, out)
        } else if self.is_interior() {
            self.try_reduce_interior(snd)
        } else {
            self.try_reduce_leaf(snd)
        }
    }

    /// How far the caller-facing cursor has advanced — results at the
    /// root, own contributions elsewhere. This is what bounds further
    /// `snd` slices (the root's own-fold cursor may run ahead of the
    /// results by up to a window, but the caller's slices track results).
    fn consumed(&self) -> u64 {
        if self.is_interior() {
            self.progress[0]
        } else {
            self.done
        }
    }

    fn try_reduce_leaf(&mut self, snd: &[T]) -> Result<usize, SmiError> {
        if !self.advance()? {
            return Ok(0);
        }
        let mut consumed = 0usize;
        while consumed < snd.len() {
            if self.credits == 0 {
                self.absorb_credits()?;
                if self.credits == 0 {
                    break;
                }
            }
            let avail = (snd.len() - consumed).min(self.credits as usize);
            let (take, pkt) = self.framer.push_slice(&snd[consumed..consumed + avail]);
            consumed += take;
            self.done += take as u64;
            self.credits -= take as u64;
            if let Some(p) = self.upstream(pkt) {
                self.io.stage(p);
                if self.io.stage_full() && !self.io.try_flush()? {
                    break;
                }
            }
        }
        self.advance()?;
        Ok(consumed)
    }

    /// A packet bound upstream, with the framer's partial one at a credit
    /// window's or the message's end: upstream grants are window-aligned,
    /// so no packet straddles the parent's window tile (matching the
    /// fabric support kernel).
    fn upstream(&mut self, pkt: Option<NetworkPacket>) -> Option<NetworkPacket> {
        if self.credits == 0 || self.done == self.count {
            pkt.or_else(|| self.framer.flush())
        } else {
            pkt
        }
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

    /// Fold network contributions into the ring window (combiner nodes).
    /// A contributor that completed this message may already stream the
    /// port's next one under its implicit first window: packets past its
    /// `count` wait for the next open (senders flush at the message end,
    /// so no packet straddles two messages).
    fn fold_network(&mut self) -> Result<(), SmiError> {
        let c = self.credits_window;
        while let Some(pkt) = self.io.try_recv_data()? {
            expect_op(&pkt.header, PacketOp::Reduce)?;
            let src = pkt.header.src as usize;
            let slot = self.contrib_slot[src].ok_or_else(|| SmiError::ProtocolViolation {
                detail: format!("reduce contribution from unexpected world rank {src}"),
            })?;
            if self.progress[slot] == self.count {
                self.io.carry(pkt);
                continue;
            }
            let mut df = Deframer::new(T::DATATYPE);
            df.refill(pkt);
            while let Some(v) = df.pop::<T>() {
                let at = self.progress[slot];
                debug_assert!(at < self.granted, "credit window violated");
                let s = (at % c) as usize;
                self.window[s] = self.op.apply(self.window[s], v);
                self.progress[slot] = at + 1;
            }
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

    fn try_reduce_root(&mut self, snd: &[T], out: &mut [T]) -> Result<usize, SmiError> {
        self.advance()?;
        let base = self.done;
        let n = snd.len().min(out.len());
        let c = self.credits_window;
        // Fold own contributions, up to a window ahead of completed results
        // (the cursor `progress[0]` survives across calls, so re-passed
        // elements are never folded twice).
        while self.progress[0] < base + c && self.progress[0] - base < n as u64 {
            let idx = (self.progress[0] - base) as usize;
            let slot = (self.progress[0] % c) as usize;
            self.window[slot] = self.op.apply(self.window[slot], snd[idx]);
            self.progress[0] += 1;
        }
        // Drain network contributions (bounded by the credit window).
        self.fold_network()?;
        // Emit every element that is now complete at all contributors.
        let mut completed = 0usize;
        let mut pending_grant = 0u64;
        loop {
            let i = self.done;
            if (i - base) as usize >= n || self.progress.iter().any(|&p| p <= i) {
                break;
            }
            let slot = (i % c) as usize;
            out[(i - base) as usize] = self.window[slot];
            // The slot is consumed: reset it for element i + C
            // (contributions for which arrive only after the next grant).
            self.window[slot] = identity_of::<T>(self.op);
            self.done = i + 1;
            completed += 1;
            // Window boundary: coalesce the grant (§4.4), clamped to the
            // message tail, staged below.
            pending_grant += self.window_grant();
        }
        self.stage_grants(pending_grant);
        self.advance()?;
        Ok(completed)
    }

    /// Interior node, own-contribution side: fold `snd` into the window up
    /// to one credit window ahead of the emitted stream.
    fn try_reduce_interior(&mut self, snd: &[T]) -> Result<usize, SmiError> {
        self.advance()?; // runs the combine-and-forward pump
        let c = self.credits_window;
        let mut consumed = 0usize;
        while consumed < snd.len() && self.progress[0] < self.done + c {
            let slot = (self.progress[0] % c) as usize;
            self.window[slot] = self.op.apply(self.window[slot], snd[consumed]);
            self.progress[0] += 1;
            consumed += 1;
        }
        if consumed > 0 {
            self.advance()?;
        }
        Ok(consumed)
    }

    /// Interior combine-and-forward duty (runs on every poll): absorb
    /// upstream credits, fold children, emit completed elements toward the
    /// parent within the upstream window, and grant children at window
    /// boundaries.
    fn pump_interior(&mut self) -> Result<(), SmiError> {
        self.absorb_credits()?;
        self.fold_network()?;
        let c = self.credits_window;
        let mut pending_grant = 0u64;
        while self.done < self.count {
            let i = self.done;
            if self.progress.iter().any(|&p| p <= i) || self.credits == 0 {
                break;
            }
            if self.io.stage_full() && !self.io.try_flush()? {
                break;
            }
            let slot = (i % c) as usize;
            let v = self.window[slot];
            self.window[slot] = identity_of::<T>(self.op);
            let pkt = self.framer.push(&v);
            self.done = i + 1;
            self.credits -= 1;
            if let Some(p) = self.upstream(pkt) {
                self.io.stage(p);
            }
            pending_grant += self.window_grant();
        }
        self.stage_grants(pending_grant);
        Ok(())
    }

    /// Bulk `SMI_Reduce`, blocking until every element of `snd` completed.
    /// At the root, `out` must be the same length as `snd` and receives the
    /// reduced stream; elsewhere `out` is ignored (may be empty). A call
    /// that completes this member's whole contribution additionally drives
    /// the channel to `Done` — an interior combiner keeps folding and
    /// forwarding its children's streams after its own contribution is
    /// consumed, and returning earlier would strand the subtree when the
    /// caller drops the channel.
    pub fn reduce_slice(&mut self, snd: &[T], out: &mut [T]) -> Result<(), SmiError> {
        if snd.len() as u64 > self.count - self.consumed() {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        if self.is_root && out.len() < snd.len() {
            return Err(SmiError::ProtocolViolation {
                detail: "reduce_slice at the root needs out.len() >= snd.len()".into(),
            });
        }
        let mut off = 0usize;
        self.io.wait().on("reduce progress", || {
            let done_before = self.done;
            let moved = if self.is_root {
                self.try_reduce_root(&snd[off..], &mut out[off..])?
            } else if self.is_interior() {
                self.try_reduce_interior(&snd[off..])?
            } else {
                self.try_reduce_leaf(&snd[off..])?
            };
            off += moved;
            if off == snd.len() && self.io.try_flush()? {
                let full = self.consumed() == self.count;
                if !full || self.poll()? == CollectiveState::Done {
                    return Ok(BlockingStep::Ready(()));
                }
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
        Ok(if self.is_root { Some(out[0]) } else { None })
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
        self.advance()?;
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
    use crate::endpoint::{new_table, CksLanes, PortRes};
    use smi_codegen::OpSpec;
    use smi_wire::Datatype;

    /// The grants a lone root with window `window` makes over a
    /// `count`-element message as its completed elements reach `upto`.
    fn grants(window: u64, count: u64, upto: u64) -> Vec<u64> {
        let op = OpSpec::reduce(0, Datatype::Int, ReduceOp::Add);
        let table = new_table();
        table
            .lock()
            .put(0, op.kind, PortRes::new(&op, CksLanes::default(), None));
        let params = RuntimeParams {
            reduce_credits: window,
            ..RuntimeParams::default()
        };
        let comm = Communicator::of_members(vec![0], 0);
        let edges = WireEdges {
            parent: None,
            children: Vec::new(),
        };
        let mut ch = ReduceChannel::<i32>::open(table, &comm, count, 0, edges, &params).unwrap();
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
