//! The scatter channel (`SMI_Open_scatter_channel` analogue).
//!
//! The root pushes `count × N` elements in communicator order; every member
//! (including the root) pops its `count`-element slice. Each member grants
//! its block to the root at open — the paper's ready-`Sync` (§3.3) — and
//! the root streams it as an ordinary `(root, owner)` stream once the grant
//! arrived, as in the paper's support kernels (§4.4); the owner pops it from
//! its own delivery the way a point-to-point receive does. No other member
//! touches a block. The protocol is gather's run the other way
//! (`blocks.rs`).

use smi_codegen::OpKind;
use smi_wire::SmiType;

use crate::collectives::blocks::Blocks;
use crate::collectives::{CollectivePoll, CollectiveState};
use crate::comm::Communicator;
use crate::endpoint::EndpointTableHandle;
use crate::params::RuntimeParams;
use crate::SmiError;

/// A scatter channel, as a poll-mode core with bulk `push_slice` /
/// `pop_slice` operations and non-blocking `try_*` forms.
pub struct ScatterChannel<T: SmiType> {
    blocks: Blocks<T>,
}

impl<T: SmiType> ScatterChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        comm: &Communicator,
        count: u64,
        port: usize,
        root: usize,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let blocks = Blocks::open(table, comm, count, port, root, OpKind::Scatter, params)?;
        Ok(ScatterChannel { blocks })
    }

    /// Non-blocking bulk push (root only): feed the next elements of the
    /// `count × N` source stream. Consumes as many elements as transport
    /// capacity and the owners' grants currently allow; `Ok(0)` means "try
    /// again later".
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        self.blocks.try_push_slice(values)
    }

    /// Bulk push (root only), blocking until the whole slice was accepted.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SmiError> {
        self.blocks.push_slice(values, "scatter push progress")
    }

    /// Root only: feed the next element of the `count × N` source stream.
    /// Blocking form.
    pub fn push(&mut self, value: &T) -> Result<(), SmiError> {
        self.push_slice(std::slice::from_ref(value))
    }

    /// Non-blocking bulk pop: drain whatever of this member's slice has
    /// arrived (root: whatever of its own slice it already pushed) into
    /// `out`; returns how many elements were written.
    pub fn try_pop_slice(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        self.blocks.try_pop_slice(out)
    }

    /// Bulk pop, blocking until `out` is filled. At the root the slice must
    /// already have been pushed (the root's own elements cannot arrive from
    /// anywhere else), so a shortfall is a protocol violation, not a stall.
    pub fn pop_slice(&mut self, out: &mut [T]) -> Result<(), SmiError> {
        self.blocks.pop_slice(out, "scatter data")
    }

    /// Pop the next element of this member's slice. Blocking form.
    pub fn pop(&mut self) -> Result<T, SmiError> {
        let mut out = [crate::collectives::zero_elem::<T>()];
        self.pop_slice(&mut out)?;
        Ok(out[0])
    }

    /// Spin until the member's grant left for the root (thread plane).
    pub(crate) fn wait_open(&mut self) -> Result<(), SmiError> {
        self.blocks.wait_open("scatter sync path")
    }
}

impl<T: SmiType> CollectivePoll for ScatterChannel<T> {
    fn poll(&mut self) -> Result<CollectiveState, SmiError> {
        self.blocks.poll()
    }

    fn state(&self) -> CollectiveState {
        self.blocks.state()
    }
}
