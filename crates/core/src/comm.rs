//! Communicators.
//!
//! "Analogously to MPI, communicators can be established at runtime, and
//! allow communication to be further organized into logical groups" (§3.1.1).
//! A [`Communicator`] is an ordered set of world ranks; collective channels
//! and peer arguments are expressed in communicator-relative ranks and
//! translated to world ranks (which is what the transport routes on).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::SmiError;

/// Rendezvous board used to implement `split` without network traffic — the
/// host-side coordination that `SMI_Init`-style host code performs in the
/// paper's workflow (communicator setup happens from the host program).
#[derive(Debug, Default)]
pub(crate) struct SplitBoard {
    state: Mutex<HashMap<u64, SplitGather>>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct SplitGather {
    /// (color, key, world_rank) of each member that has arrived.
    entries: Vec<(i64, i64, usize)>,
    expected: usize,
    /// Computed groups, keyed by color (set by the last arriver).
    result: Option<HashMap<i64, Vec<usize>>>,
    readers: usize,
}

/// Deterministic derived-communicator id: every member must compute the same
/// id locally (it keys future split rendezvous), so it is a hash of the
/// parent id, the split epoch, and the member's color — never a global
/// counter.
fn derive_comm_id(parent: u64, epoch: u64, color: i64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [parent, epoch, color as u64] {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h | 1 // 0 is reserved for the world communicator
}

/// An ordered group of ranks, MPI-communicator style.
#[derive(Debug, Clone)]
pub struct Communicator {
    /// Unique id (world = 0; every split product gets a fresh id).
    id: u64,
    /// World ranks of the members, in communicator order.
    ranks: Arc<Vec<usize>>,
    /// This process's index within `ranks`.
    my_index: usize,
    /// Split epoch counter (shared by all clones at the same member).
    epoch: Arc<AtomicU64>,
    board: Arc<SplitBoard>,
}

impl Communicator {
    pub(crate) fn world(num_ranks: usize, my_rank: usize, board: Arc<SplitBoard>) -> Communicator {
        Communicator {
            id: 0,
            ranks: Arc::new((0..num_ranks).collect()),
            my_index: my_rank,
            epoch: Arc::new(AtomicU64::new(0)),
            board,
        }
    }

    /// Member `my_index` of a communicator over `ranks`, as a split would
    /// have produced it.
    #[cfg(test)]
    pub(crate) fn of_members(ranks: Vec<usize>, my_index: usize) -> Communicator {
        Communicator {
            id: 1,
            ranks: Arc::new(ranks),
            my_index,
            epoch: Arc::default(),
            board: Arc::default(),
        }
    }

    /// This member's rank within the communicator (`SMI_Comm_rank`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of members (`SMI_Comm_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Translate a communicator rank to the world rank the transport routes on.
    pub fn world_rank(&self, comm_rank: usize) -> Result<usize, SmiError> {
        self.ranks.get(comm_rank).copied().ok_or(SmiError::BadRank {
            rank: comm_rank,
            size: self.size(),
        })
    }

    /// The rank packets for member `comm_rank` are addressed to: its world
    /// rank, checked against the header's 8-bit field.
    pub(crate) fn wire_rank(&self, comm_rank: usize) -> Result<u8, SmiError> {
        Ok(smi_wire::header::rank_to_wire(self.world_rank(comm_rank)?)?)
    }

    /// The communicator's id (world = 0) and shared member list.
    pub(crate) fn identity(&self) -> (u64, &Arc<Vec<usize>>) {
        (self.id, &self.ranks)
    }

    /// The member world ranks in communicator order.
    pub fn world_ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Find the communicator rank of a world rank.
    pub fn comm_rank_of_world(&self, world: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == world)
    }

    /// Split the communicator into disjoint groups by `color`, ordering each
    /// group by `(key, world rank)` — the MPI_Comm_split contract. Every
    /// member must call `split` (collectively, like MPI).
    pub fn split(&self, color: i64, key: i64) -> Result<Communicator, SmiError> {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        // Key the gather by (comm id, epoch): same-comm same-epoch calls meet.
        let gather_key = self.id.wrapping_mul(1_000_003).wrapping_add(epoch);
        let my_world = self.ranks[self.my_index];
        let expected = self.size();
        let mut st = self.board.state.lock();
        let gather = st.entry(gather_key).or_insert_with(|| SplitGather {
            entries: Vec::new(),
            expected,
            result: None,
            readers: 0,
        });
        gather.entries.push((color, key, my_world));
        if gather.entries.len() == gather.expected {
            // Last arriver computes the groups.
            let mut groups: HashMap<i64, Vec<(i64, usize)>> = HashMap::new();
            for &(c, k, w) in &gather.entries {
                groups.entry(c).or_default().push((k, w));
            }
            let mut result = HashMap::new();
            for (c, mut members) in groups {
                members.sort();
                result.insert(c, members.into_iter().map(|(_, w)| w).collect());
            }
            gather.result = Some(result);
            self.board.cv.notify_all();
        }
        // Wait for the result.
        while st.get(&gather_key).expect("gather exists").result.is_none() {
            self.board.cv.wait(&mut st);
        }
        let gather = st.get_mut(&gather_key).expect("gather exists");
        let group = gather.result.as_ref().expect("result set")[&color].clone();
        gather.readers += 1;
        if gather.readers == gather.expected {
            st.remove(&gather_key);
        }
        drop(st);
        let my_index = group
            .iter()
            .position(|&w| w == my_world)
            .expect("self is in own color group");
        Ok(Communicator {
            id: derive_comm_id(self.id, epoch, color),
            ranks: Arc::new(group),
            my_index,
            epoch: Arc::new(AtomicU64::new(0)),
            board: self.board.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_basics() {
        let board = Arc::new(SplitBoard::default());
        let c = Communicator::world(4, 2, board);
        assert_eq!(c.rank(), 2);
        assert_eq!(c.size(), 4);
        assert_eq!(c.world_rank(3).unwrap(), 3);
        assert!(c.world_rank(4).is_err());
        assert_eq!(c.comm_rank_of_world(1), Some(1));
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        let board = Arc::new(SplitBoard::default());
        let comms: Vec<Communicator> = (0..4)
            .map(|r| Communicator::world(4, r, board.clone()))
            .collect();
        // Even/odd split; key reverses order within the odd group.
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(r, c)| {
                std::thread::spawn(move || {
                    let color = (r % 2) as i64;
                    let key = if color == 1 { -(r as i64) } else { r as i64 };
                    let sub = c.split(color, key).unwrap();
                    (r, sub.world_ranks().to_vec(), sub.rank())
                })
            })
            .collect();
        let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort();
        assert_eq!(results[0].1, vec![0, 2]); // evens by key asc
        assert_eq!(results[1].1, vec![3, 1]); // odds by key desc
        assert_eq!(results[3].1, vec![3, 1]);
        assert_eq!(results[3].2, 0); // key -3 sorts first: world rank 3 is index 0
        assert_eq!(results[1].2, 1); // world rank 1 at index 1 of [3,1]
    }

    #[test]
    fn consecutive_splits_use_fresh_epochs() {
        let board = Arc::new(SplitBoard::default());
        let comms: Vec<Communicator> = (0..2)
            .map(|r| Communicator::world(2, r, board.clone()))
            .collect();
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let a = c.split(0, 0).unwrap();
                    let b = c.split(0, 0).unwrap();
                    (a.world_ranks().to_vec(), b.world_ranks().to_vec())
                })
            })
            .collect();
        for h in handles {
            let (a, b) = h.join().unwrap();
            assert_eq!(a, vec![0, 1]);
            assert_eq!(b, vec![0, 1]);
        }
    }
}
