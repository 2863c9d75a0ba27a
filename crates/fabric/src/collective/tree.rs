//! Tree-based collective variants.
//!
//! The paper's reference implementation "does not yet implement tree-based
//! collectives, resulting in a higher congestion in the root rank" (§5.3.4),
//! but names them as the natural extension the support-kernel architecture
//! enables ("they can also be exploited to offer different implementations of
//! collectives, such as tree-based schema for Bcast and Reduce", §4.4).
//!
//! Both kernels stream along the **hop tree** of the functional plane
//! ([`smi_topology::hop_tree`], grown over the routing plan's hop matrix, so
//! every edge is one physical link on the regular topologies); the caller
//! derives each rank's parent and children and hands them in.
//!
//! [`TreeBcastSupport`] is a streaming tree broadcast: every rank receives
//! the message stream from its tree parent and fans each packet out to its
//! children, so the root pushes each packet once per child instead of `N−1`
//! times. Readiness `Sync`s flow child→parent before any data moves,
//! preserving the §3.3 correctness protocol along every tree edge. The
//! tree-based Reduce ([`TreeReduceSupport`]) reverses the edges: children
//! stream credit-windowed contributions to their parent, which folds them
//! with its own stream and forwards the partial aggregate upward.

use smi_wire::{Deframer, NetworkPacket, PacketOp, ReduceOp};

use crate::builder::SupportWiring;
use crate::collective::CollectiveComm;
use crate::engine::{Component, Status};
use crate::fifo::FifoPool;

enum Phase {
    /// Collect readiness Syncs from all children. Runs *before* announcing
    /// to the parent: a node's readiness means its whole subtree is ready,
    /// otherwise parent data could arrive interleaved with child syncs on
    /// the same port.
    CollectSyncs {
        got: usize,
    },
    /// Non-root: announce subtree readiness to the parent.
    SendSync,
    /// Stream: pull packets (from parent or the root's app) and fan out.
    Stream {
        elems: u64,
        pkt: Option<NetworkPacket>,
        fanout_idx: usize,
        delivered_local: bool,
    },
    Done,
}

/// Tree broadcast support kernel.
pub struct TreeBcastSupport {
    name: String,
    comm: CollectiveComm,
    my_rank: usize,
    w: SupportWiring,
    parent: Option<usize>,
    children: Vec<usize>,
    phase: Phase,
}

impl TreeBcastSupport {
    /// Create the support kernel for `my_rank`, whose tree `parent` (`None`
    /// at the root) and `children` are global ranks.
    pub fn new(
        name: impl Into<String>,
        comm: CollectiveComm,
        my_rank: usize,
        parent: Option<usize>,
        children: Vec<usize>,
        wiring: SupportWiring,
    ) -> Self {
        let phase = if comm.count == 0 {
            Phase::Done
        } else if children.is_empty() {
            // Leaf: nothing to collect; root-leaf degenerates to streaming.
            if parent.is_none() {
                Phase::Stream {
                    elems: 0,
                    pkt: None,
                    fanout_idx: 0,
                    delivered_local: false,
                }
            } else {
                Phase::SendSync
            }
        } else {
            Phase::CollectSyncs { got: 0 }
        };
        TreeBcastSupport {
            name: name.into(),
            comm,
            my_rank,
            w: wiring,
            parent,
            children,
            phase,
        }
    }
}

impl Component for TreeBcastSupport {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64, fifos: &mut FifoPool) -> Status {
        match &mut self.phase {
            Phase::Done => Status::Done,
            Phase::SendSync => {
                let parent = self.parent.expect("non-root");
                if fifos.can_push(self.w.to_cks) {
                    let sync = self.comm.control(self.my_rank, parent, PacketOp::Sync, 0);
                    fifos.push(self.w.to_cks, sync);
                    self.phase = Phase::Stream {
                        elems: 0,
                        pkt: None,
                        fanout_idx: 0,
                        delivered_local: false,
                    };
                    Status::Active
                } else {
                    Status::Idle
                }
            }
            Phase::CollectSyncs { got } => {
                if fifos.can_pop(self.w.from_ckr) {
                    let pkt = fifos.pop(self.w.from_ckr);
                    assert_eq!(pkt.header.op, PacketOp::Sync, "expected child Sync");
                    *got += 1;
                    if *got == self.children.len() {
                        self.phase = if self.parent.is_none() {
                            Phase::Stream {
                                elems: 0,
                                pkt: None,
                                fanout_idx: 0,
                                delivered_local: false,
                            }
                        } else {
                            Phase::SendSync
                        };
                    }
                    Status::Active
                } else {
                    Status::Idle
                }
            }
            Phase::Stream {
                elems,
                pkt,
                fanout_idx,
                delivered_local,
            } => {
                if pkt.is_none() {
                    let input = if self.parent.is_none() {
                        self.w.app_in
                    } else {
                        self.w.from_ckr
                    };
                    if !fifos.can_pop(input) {
                        return Status::Idle;
                    }
                    let got = fifos.pop(input);
                    if self.parent.is_some() {
                        assert_eq!(got.header.op, PacketOp::Bcast, "expected Bcast data");
                    }
                    *pkt = Some(got);
                    *fanout_idx = 0;
                    *delivered_local = self.parent.is_none(); // root's app already has the data
                }
                let data = pkt.expect("loaded above");
                // Deliver locally first (non-root only), then to children,
                // one push per cycle.
                if !*delivered_local {
                    if !fifos.can_push(self.w.app_out) {
                        return Status::Idle;
                    }
                    fifos.push(self.w.app_out, data);
                    *delivered_local = true;
                    return Status::Active;
                }
                if *fanout_idx < self.children.len() {
                    if !fifos.can_push(self.w.to_cks) {
                        return Status::Idle;
                    }
                    let mut copy = data;
                    copy.header.src = self.my_rank as u8;
                    copy.header.dst = self.children[*fanout_idx] as u8;
                    copy.header.port = self.comm.port;
                    copy.header.op = PacketOp::Bcast;
                    fifos.push(self.w.to_cks, copy);
                    *fanout_idx += 1;
                    if *fanout_idx < self.children.len() {
                        return Status::Active;
                    }
                }
                *elems += data.header.count as u64;
                *pkt = None;
                if *elems >= self.comm.count {
                    self.phase = Phase::Done;
                }
                Status::Active
            }
        }
    }

    fn is_terminal(&self) -> bool {
        true
    }
}

/// Tree reduce support kernel.
///
/// Every node folds its own application stream with its children's partial
/// aggregates (credit-windowed per edge) and forwards the tile to its parent;
/// the root emits the final tile to the application.
pub struct TreeReduceSupport {
    name: String,
    comm: CollectiveComm,
    op: ReduceOp,
    credits: u64,
    my_rank: usize,
    w: SupportWiring,
    children: Vec<usize>,
    parent: Option<usize>,
    // Tile machinery.
    tile: Vec<u8>,
    tile_size: u64,
    /// progress[0] = own stream; progress[1..] per child.
    progress: Vec<u64>,
    done: u64,
    own: Deframer,
    /// Credits granted to us by the parent (leaf→root flow control).
    upstream_credits: u64,
    /// Emission state toward parent/app.
    emit_offset: u64,
    emitting: bool,
    credit_idx: usize,
    crediting: bool,
    pending: Option<NetworkPacket>,
}

impl TreeReduceSupport {
    /// Create the support kernel for `my_rank`, whose tree `parent` (`None`
    /// at the root) and `children` are global ranks.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        comm: CollectiveComm,
        op: ReduceOp,
        credits: u64,
        my_rank: usize,
        parent: Option<usize>,
        children: Vec<usize>,
        wiring: SupportWiring,
    ) -> Self {
        assert!(credits >= 1);
        let sz = comm.dtype.size_bytes();
        let tile_size = comm.count.min(credits);
        let mut tile = vec![0u8; credits as usize * sz];
        let mut ident = vec![0u8; sz];
        op.identity_bytes(comm.dtype, &mut ident);
        for chunk in tile.chunks_exact_mut(sz) {
            chunk.copy_from_slice(&ident);
        }
        let n_children = children.len();
        let own = Deframer::new(comm.dtype);
        TreeReduceSupport {
            name: name.into(),
            comm,
            op,
            credits,
            my_rank,
            w: wiring,
            children,
            parent,
            tile,
            tile_size,
            progress: vec![0; 1 + n_children],
            done: 0,
            own,
            upstream_credits: credits,
            emit_offset: 0,
            emitting: false,
            credit_idx: 0,
            crediting: false,
            pending: None,
        }
    }

    fn reset_tile(&mut self) {
        let sz = self.comm.dtype.size_bytes();
        let mut ident = vec![0u8; sz];
        self.op.identity_bytes(self.comm.dtype, &mut ident);
        for chunk in self.tile.chunks_exact_mut(sz) {
            chunk.copy_from_slice(&ident);
        }
        self.progress.iter_mut().for_each(|p| *p = 0);
    }

    fn child_index(&self, rank: usize) -> Option<usize> {
        self.children.iter().position(|&c| c == rank).map(|i| i + 1)
    }
}

impl Component for TreeReduceSupport {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64, fifos: &mut FifoPool) -> Status {
        let sz = self.comm.dtype.size_bytes();
        if self.done == self.comm.count
            && self.pending.is_none()
            && !self.emitting
            && !self.crediting
        {
            return Status::Done;
        }
        // 0. Flush a stalled outgoing packet.
        if let Some(pkt) = self.pending.take() {
            if fifos.can_push(self.w.to_cks) {
                fifos.push(self.w.to_cks, pkt);
                return Status::Active;
            }
            self.pending = Some(pkt);
            return Status::Idle;
        }
        // 1. Credit grants to children after a consumed tile.
        if self.crediting {
            if self.credit_idx == self.children.len() {
                self.crediting = false;
                let remaining = self.comm.count - self.done;
                self.tile_size = remaining.min(self.credits);
                self.reset_tile();
                return Status::Active;
            }
            if fifos.can_push(self.w.to_cks) {
                let credit = self.comm.control(
                    self.my_rank,
                    self.children[self.credit_idx],
                    PacketOp::Credit,
                    self.credits as u32,
                );
                fifos.push(self.w.to_cks, credit);
                self.credit_idx += 1;
                return Status::Active;
            }
            return Status::Idle;
        }
        // 2. Emit a completed tile: root → app, inner node → parent (credit-
        //    windowed).
        if self.emitting {
            match self.parent {
                None => {
                    if !fifos.can_push(self.w.app_out) {
                        return Status::Idle;
                    }
                    let epp = self.comm.dtype.elems_per_packet() as u64;
                    let k = epp.min(self.tile_size - self.emit_offset);
                    let mut pkt = NetworkPacket::new(
                        self.my_rank as u8,
                        self.my_rank as u8,
                        self.comm.port,
                        PacketOp::Reduce,
                    );
                    pkt.header.count = k as u8;
                    let lo = self.emit_offset as usize * sz;
                    pkt.payload[..k as usize * sz]
                        .copy_from_slice(&self.tile[lo..lo + k as usize * sz]);
                    fifos.push(self.w.app_out, pkt);
                    self.emit_offset += k;
                }
                Some(_) => {
                    // The parent granted tile-sized credit windows; our tile
                    // size equals theirs, so one full tile fits one window.
                    if self.upstream_credits == 0 {
                        if fifos.can_pop(self.w.from_ckr) {
                            let pkt = fifos.pop(self.w.from_ckr);
                            if pkt.header.op == PacketOp::Credit {
                                self.upstream_credits += pkt.control_arg() as u64;
                                return Status::Active;
                            }
                            // Children data can interleave with parent credits
                            // on the same port; fold it.
                            self.fold_network_packet(pkt, sz);
                            return Status::Active;
                        }
                        return Status::Idle;
                    }
                    if !fifos.can_push(self.w.to_cks) {
                        return Status::Idle;
                    }
                    let epp = self.comm.dtype.elems_per_packet() as u64;
                    let k = epp
                        .min(self.tile_size - self.emit_offset)
                        .min(self.upstream_credits);
                    let mut pkt = NetworkPacket::new(
                        self.my_rank as u8,
                        self.parent.expect("inner node") as u8,
                        self.comm.port,
                        PacketOp::Reduce,
                    );
                    pkt.header.count = k as u8;
                    let lo = self.emit_offset as usize * sz;
                    pkt.payload[..k as usize * sz]
                        .copy_from_slice(&self.tile[lo..lo + k as usize * sz]);
                    fifos.push(self.w.to_cks, pkt);
                    self.emit_offset += k;
                    self.upstream_credits -= k;
                }
            }
            if self.emit_offset == self.tile_size {
                self.done += self.tile_size;
                self.emitting = false;
                self.emit_offset = 0;
                if self.done < self.comm.count || !self.children.is_empty() {
                    if self.children.is_empty() {
                        let remaining = self.comm.count - self.done;
                        self.tile_size = remaining.min(self.credits);
                        self.reset_tile();
                    } else if self.done < self.comm.count {
                        self.crediting = true;
                        self.credit_idx = 0;
                    }
                }
            }
            return Status::Active;
        }
        // 3. Fold phase: own stream + children contributions.
        let mut acted = false;
        if fifos.can_pop(self.w.from_ckr) {
            let pkt = fifos.pop(self.w.from_ckr);
            if pkt.header.op == PacketOp::Credit {
                self.upstream_credits += pkt.control_arg() as u64;
            } else {
                self.fold_network_packet(pkt, sz);
            }
            acted = true;
        } else if self.progress[0] < self.tile_size {
            if self.own.is_empty() && fifos.can_pop(self.w.app_in) {
                self.own.refill(fifos.pop(self.w.app_in));
            }
            let mut buf = [0u8; 8];
            let mut folded = 0;
            while self.progress[0] < self.tile_size
                && folded < self.comm.dtype.elems_per_packet()
                && self.own.pop_bytes(&mut buf[..sz])
            {
                let at = self.progress[0] as usize;
                self.op.fold_bytes(
                    self.comm.dtype,
                    &mut self.tile[at * sz..(at + 1) * sz],
                    &buf[..sz],
                );
                self.progress[0] += 1;
                folded += 1;
            }
            acted = folded > 0;
        }
        if self.progress.iter().all(|&p| p >= self.tile_size) {
            self.emitting = true;
            self.emit_offset = 0;
            return Status::Active;
        }
        if acted {
            Status::Active
        } else {
            Status::Idle
        }
    }

    fn is_terminal(&self) -> bool {
        true
    }
}

impl TreeReduceSupport {
    fn fold_network_packet(&mut self, pkt: NetworkPacket, sz: usize) {
        assert_eq!(pkt.header.op, PacketOp::Reduce, "expected Reduce data");
        let idx = self
            .child_index(pkt.header.src as usize)
            .expect("contribution from a tree child");
        let k = pkt.header.count as u64;
        let at = self.progress[idx];
        assert!(at + k <= self.tile_size, "child violated credit window");
        let lo = at as usize * sz;
        let hi = (at + k) as usize * sz;
        self.op.fold_bytes(
            self.comm.dtype,
            &mut self.tile[lo..hi],
            &pkt.payload[..k as usize * sz],
        );
        self.progress[idx] += k;
    }
}
