//! # smi — the Streaming Message Interface
//!
//! A Rust implementation of **SMI**, the communication model and interface
//! of *De Matteis et al., "Streaming Message Interface: High-Performance
//! Distributed Memory Programming on Reconfigurable Hardware" (SC 2019)*.
//!
//! SMI unifies message passing and streaming: instead of bulk-transferring
//! buffers, a *streaming message* is a **transient channel** — opened with a
//! count, datatype, peer rank and port — whose elements are pushed/popped one
//! per (simulated) clock cycle, while a table-driven transport layer routes
//! 32-byte packets across the FPGA interconnect.
//!
//! This crate is the *functional plane* of the reproduction: the transport
//! layer (CKS/CKR communication kernels, §4.2–4.3) runs as cooperative
//! state machines on a sharded executor — a fixed pool of worker threads —
//! forwarding real packet *bursts* over bounded FIFO channels that honour
//! the cluster [`smi_topology::Topology`] and a deadlock-free routing plan.
//! Rank programs run either as blocking closures on their own OS threads
//! ([`run_mpmd`]/[`run_spmd`]) or as poll-mode tasks on the same worker
//! pool ([`env::run_mpmd_tasks`]), which lets 64+-rank clusters execute on
//! a handful of threads. Data, framing, headers and protocols are
//! bit-identical with the cycle-accurate `smi-fabric` plane.
//!
//! ## Point-to-point (the paper's Lst. 1)
//!
//! ```
//! use smi::prelude::*;
//!
//! let topo = Topology::bus(2);
//! // The "metadata extractor" output: rank 0 sends on port 0, rank 1 receives.
//! let metas = vec![
//!     ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
//!     ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
//! ];
//! let n = 64;
//! let report = run_mpmd(
//!     &topo,
//!     metas,
//!     vec![
//!         Box::new(move |ctx: SmiCtx| {
//!             let mut ch = ctx.open_send_channel::<i32>(n, 1, 0).unwrap();
//!             for i in 0..n as i32 {
//!                 ch.push(&i).unwrap(); // pipelined loop body
//!             }
//!             0
//!         }),
//!         Box::new(move |ctx: SmiCtx| {
//!             let mut ch = ctx.open_recv_channel::<i32>(n, 0, 0).unwrap();
//!             let mut sum = 0;
//!             for _ in 0..n {
//!                 sum += ch.pop().unwrap();
//!             }
//!             sum
//!         }),
//!     ],
//!     RuntimeParams::default(),
//! )
//! .unwrap();
//! assert_eq!(report.results[1], (0..64).sum::<i32>());
//! ```
//!
//! ## SPMD broadcast (the paper's Lst. 2)
//!
//! ```
//! use smi::prelude::*;
//!
//! let topo = Topology::torus2d(2, 2);
//! let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Float));
//! let report = run_spmd(
//!     &topo,
//!     meta,
//!     |ctx: SmiCtx| {
//!         let comm = ctx.world();
//!         let root = 0;
//!         let mut chan = ctx.open_bcast_channel::<f32>(8, 0, root, &comm).unwrap();
//!         let mut out = Vec::new();
//!         for i in 0..8 {
//!             let mut data = if comm.rank() == root { i as f32 * 2.0 } else { 0.0 };
//!             chan.bcast(&mut data).unwrap();
//!             out.push(data);
//!         }
//!         out
//!     },
//!     RuntimeParams::default(),
//! )
//! .unwrap();
//! for r in report.results {
//!     assert_eq!(r, (0..8).map(|i| i as f32 * 2.0).collect::<Vec<_>>());
//! }
//! ```
//!
//! ## Cooperative task-plane collective
//!
//! Collectives open rendezvous-free with the `open_*_channel_poll` variants
//! (`Opening → Streaming → Done` handshake driven by
//! [`CollectivePoll::poll`]/`try_*`), so a poll-mode [`RankTask`] can drive
//! them on the executor's worker pool — no OS thread per rank. Every
//! collective also supports tree routing ([`CollectiveScheme::Tree`] via
//! [`RuntimeParams::collective_scheme`]): bcast and reduce fan out and
//! combine along a tree grown over the routed hop matrix (every edge one
//! physical link on the regular topologies), so the root touches a few
//! streams instead of `N − 1` — the scaling scheme past ~16 ranks. Scatter
//! and gather are one protocol run in opposite directions under either
//! scheme — a block's receiver grants it, and its sender streams it root ↔
//! owner as its own stream; `Tree` lets a gather root grant several members
//! ahead (see [`collectives`]):
//!
//! ```
//! use smi::prelude::*;
//!
//! struct BcastTask {
//!     ch: BcastChannel<i32>,
//!     buf: Vec<i32>,
//!     off: usize,
//! }
//!
//! impl RankTask for BcastTask {
//!     fn poll(&mut self) -> Result<TaskStatus, SmiError> {
//!         // The root consumes `buf` into fan-out bursts; leaves fill it.
//!         let moved = self.ch.try_bcast_slice(&mut self.buf[self.off..])?;
//!         self.off += moved;
//!         if self.off == self.buf.len() && self.ch.poll()? == CollectiveState::Done {
//!             assert!(self.buf.iter().enumerate().all(|(i, &v)| v == i as i32));
//!             return Ok(TaskStatus::Done);
//!         }
//!         Ok(if moved > 0 { TaskStatus::Progress } else { TaskStatus::Pending })
//!     }
//! }
//!
//! let topo = Topology::torus2d(2, 2);
//! let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int));
//! let n = 64u64;
//! let report = run_spmd_tasks(
//!     &topo,
//!     meta,
//!     move |ctx: SmiCtx| {
//!         let comm = ctx.world();
//!         let ch = ctx.open_bcast_channel_poll::<i32>(n, 0, 0, &comm)?;
//!         let buf: Vec<i32> = if comm.rank() == 0 {
//!             (0..n as i32).collect()
//!         } else {
//!             vec![0; n as usize]
//!         };
//!         Ok(Box::new(BcastTask { ch, buf, off: 0 }) as Box<dyn RankTask>)
//!     },
//!     RuntimeParams::default(),
//! )
//! .unwrap();
//! assert!(report.results.iter().all(|r| r.is_ok()));
//! ```

#![warn(missing_docs)]
// No FIFO half is leaked to keep a path alive: a half an endpoint kind
// never uses is absent instead.
#![deny(clippy::mem_forget)]

pub mod channel;
pub mod collectives;
pub mod comm;
pub mod endpoint;
pub mod env;
pub mod error;
pub mod params;
pub mod proc;
pub mod transport;

pub use channel::{Protocol, RecvChannel, SendChannel};
pub use collectives::{
    BcastChannel, CollectivePoll, CollectiveScheme, CollectiveState, GatherChannel, ReduceChannel,
    ScatterChannel,
};
pub use comm::Communicator;
pub use env::{
    run_mpmd, run_mpmd_tasks, run_spmd, run_spmd_tasks, RankTask, RunReport, SmiCtx, TaskFactory,
    TaskStatus, WorkerStats,
};
pub use error::SmiError;
pub use params::{ReconnectPolicy, RuntimeParams};
pub use proc::{
    run_split_mpmd, run_split_mpmd_tasks, run_split_spmd, ProcessPlan, ProcessSpec,
    TransportBackend,
};
pub use transport::faults::{DelaySpec, FaultPlan, LinkFault, SeverSpec};
pub use transport::{WireSnapshot, WireStats};

/// Convenient glob import: the SMI API plus the re-exported foundation types.
pub mod prelude {
    pub use crate::channel::{Protocol, RecvChannel, SendChannel};
    pub use crate::collectives::{
        BcastChannel, CollectivePoll, CollectiveScheme, CollectiveState, GatherChannel,
        ReduceChannel, ScatterChannel,
    };
    pub use crate::comm::Communicator;
    pub use crate::env::{
        run_mpmd, run_mpmd_tasks, run_spmd, run_spmd_tasks, RankTask, RunReport, SmiCtx,
        TaskFactory, TaskStatus, WorkerStats,
    };
    pub use crate::error::SmiError;
    pub use crate::params::{ReconnectPolicy, RuntimeParams};
    pub use crate::proc::{
        run_split_mpmd, run_split_mpmd_tasks, run_split_spmd, ProcessPlan, ProcessSpec,
        TransportBackend,
    };
    pub use crate::transport::faults::{DelaySpec, FaultPlan, LinkFault, SeverSpec};
    pub use crate::transport::WireSnapshot;
    pub use smi_codegen::{OpSpec, ProgramMeta};
    pub use smi_topology::Topology;
    pub use smi_wire::{Datatype, ReduceOp, SmiType};
}
