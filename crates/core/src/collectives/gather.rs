//! The gather channel (`SMI_Open_gather_channel` analogue).
//!
//! Every member pushes `count` elements; the root pops `count × N` elements
//! in communicator order. "The root rank must communicate to each source
//! rank when it is ready to receive the given sequence of data" (§3.3): a
//! member waits for one `Sync` grant from the root, then streams its block
//! to the root as an ordinary `(member, root)` stream; no other member
//! touches a block. The root grants members in communicator order — one at
//! a time under `Linear`, the paper's serial grants, and under `Tree` while
//! the blocks granted past the member it pops fit `max(count,
//! burst_packets × elems_per_packet)` elements — and sorts what arrives into
//! per-member stashes. The protocol is scatter's run the other way
//! (`blocks.rs`).

use smi_codegen::OpKind;
use smi_wire::SmiType;

use crate::collectives::blocks::Blocks;
use crate::collectives::{CollectivePoll, CollectiveState};
use crate::comm::Communicator;
use crate::endpoint::EndpointTableHandle;
use crate::params::RuntimeParams;
use crate::SmiError;

/// A gather channel, as a poll-mode core with bulk `push_slice` /
/// `pop_slice` operations and non-blocking `try_*` forms.
pub struct GatherChannel<T: SmiType> {
    blocks: Blocks<T>,
}

impl<T: SmiType> GatherChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        comm: &Communicator,
        count: u64,
        port: usize,
        root: usize,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let blocks = Blocks::open(table, comm, count, port, root, OpKind::Gather, params)?;
        Ok(GatherChannel { blocks })
    }

    /// Non-blocking bulk push of this member's contribution. A member
    /// consumes as many elements as its grant and transport capacity
    /// currently allow; the root buffers its own contribution locally
    /// (bounded by `count`) until the pop cursor reaches it.
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        self.blocks.try_push_slice(values)
    }

    /// Bulk push, blocking until the whole contribution slice was accepted.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SmiError> {
        self.blocks.push_slice(values, "gather grant")
    }

    /// Push the next element of this member's contribution. Blocking form.
    pub fn push(&mut self, value: &T) -> Result<(), SmiError> {
        self.push_slice(std::slice::from_ref(value))
    }

    /// Non-blocking bulk pop (root only): drain whatever of the gathered
    /// `count × N` stream is available, granting sources as their slices
    /// come up. Returns how many elements were written.
    pub fn try_pop_slice(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        self.blocks.try_pop_slice(out)
    }

    /// Bulk pop (root only), blocking until `out` is filled. The root's own
    /// slice must already have been pushed when its turn comes up (nothing
    /// else can supply it), so a shortfall there is a protocol violation.
    pub fn pop_slice(&mut self, out: &mut [T]) -> Result<(), SmiError> {
        self.blocks.pop_slice(out, "gather data")
    }

    /// Root only: pop the next element of the gathered stream. Blocking.
    pub fn pop(&mut self) -> Result<T, SmiError> {
        let mut out = [crate::collectives::zero_elem::<T>()];
        self.pop_slice(&mut out)?;
        Ok(out[0])
    }
}

impl<T: SmiType> CollectivePoll for GatherChannel<T> {
    fn poll(&mut self) -> Result<CollectiveState, SmiError> {
        self.blocks.poll()
    }

    fn state(&self) -> CollectiveState {
        self.blocks.state()
    }
}
