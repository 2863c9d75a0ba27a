//! Deterministic fault injection for the socket fabric.
//!
//! A [`FaultPlan`] is a serde-loadable description of link faults — drop,
//! duplicate or delay the N-th frame, sever the connection after the N-th
//! frame, optionally forbidding restore. Plans ride in
//! [`crate::ProcessPlan`] JSON (`"faults"` key) or `smi-launch --fault`
//! specs, so a chaos schedule is reproducible from a file alone.
//!
//! The injector acts at the **wire level**, the real fault surface: each
//! socket pump holds a [`FaultInjector`] for its outbound direction and
//! consults it once per replay-ring frame entering its write window — the
//! same flush every connection uses. Frame indices are 1-based emission
//! ordinals; every action is one-shot, so replayed frames (which consume
//! fresh ordinals) are not re-faulted and recovery converges. A dropped or
//! delayed frame leaves a sequence gap at the receiver, which treats it as
//! a connection fault and heals through the reconnect/replay handshake —
//! exactly the path chaos tests need to exercise.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Delay one frame: withhold frame `frame` until `by` further frames have
/// been emitted (it then arrives out of order, which the session layer
/// detects as a gap and heals).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelaySpec {
    /// 1-based emission ordinal of the frame to withhold.
    pub frame: u64,
    /// How many subsequent frames to emit before releasing it.
    pub by: u64,
}

/// Sever the connection after the N-th emitted frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeverSpec {
    /// 1-based emission ordinal after which the stream is shut down.
    pub after_frame: u64,
}

fn default_restore() -> bool {
    true
}

/// Faults on one directed process-pair link (`from` process → `to`
/// process). All frame indices are 1-based ordinals of *wire emissions* on
/// that direction, counted across reconnects; each entry fires once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Sender process index in the plan.
    pub from: usize,
    /// Receiver process index in the plan.
    pub to: usize,
    /// Emission ordinals to drop (receiver sees a gap → reconnect heals).
    #[serde(default)]
    pub drop: Vec<u64>,
    /// Emission ordinals to duplicate (receiver discards the copy).
    #[serde(default)]
    pub duplicate: Vec<u64>,
    /// Frames to delay (reordered past `by` successors).
    #[serde(default)]
    pub delay: Vec<DelaySpec>,
    /// Points at which to sever the connection.
    #[serde(default)]
    pub sever: Vec<SeverSpec>,
    /// Whether the severed connection may be re-established. `false`
    /// simulates a permanent peer loss: both sides exhaust their reconnect
    /// budgets and surface `PeerDisconnected`.
    #[serde(default = "default_restore")]
    pub restore: bool,
}

impl LinkFault {
    /// A no-fault entry for `from → to` (builder-style starting point).
    pub fn clean(from: usize, to: usize) -> LinkFault {
        LinkFault {
            from,
            to,
            drop: Vec::new(),
            duplicate: Vec::new(),
            delay: Vec::new(),
            sever: Vec::new(),
            restore: true,
        }
    }
}

/// A deterministic fault schedule over directed process-pair links.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-link fault entries; links not listed run fault-free.
    #[serde(default)]
    pub links: Vec<LinkFault>,
}

impl FaultPlan {
    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(s).map_err(|e| format!("fault plan: {e}"))
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault plan serializes")
    }

    /// Build the runtime injector for the directed link `from → to`, if
    /// the plan configures one.
    pub fn injector_for(&self, from: usize, to: usize) -> Option<FaultInjector> {
        let merged: Vec<&LinkFault> = self
            .links
            .iter()
            .filter(|l| l.from == from && l.to == to)
            .collect();
        if merged.is_empty() {
            return None;
        }
        let mut inj = FaultInjector {
            drop: Vec::new(),
            duplicate: Vec::new(),
            delay: Vec::new(),
            sever: Vec::new(),
            restore: merged.iter().all(|l| l.restore),
            emitted: 0,
            held: Vec::new(),
            released: VecDeque::new(),
        };
        for l in merged {
            inj.drop.extend_from_slice(&l.drop);
            inj.duplicate.extend_from_slice(&l.duplicate);
            inj.delay.extend(l.delay.iter().map(|d| (d.frame, d.by)));
            inj.sever.extend(l.sever.iter().map(|s| s.after_frame));
        }
        inj.sever.sort_unstable();
        Some(inj)
    }
}

/// What to do with the frame currently being emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Emit normally.
    Pass,
    /// Swallow it (the replay ring still holds it; recovery re-sends).
    Drop,
    /// Emit it twice back to back.
    Duplicate,
    /// Withhold it until this many further frames have been emitted.
    Delay(u64),
}

/// Runtime state of one directed link's fault schedule. Each configured
/// fault fires exactly once; the emission counter keeps counting across
/// reconnects, so replayed frames get fresh ordinals and are never
/// re-faulted.
#[derive(Debug)]
pub struct FaultInjector {
    drop: Vec<u64>,
    duplicate: Vec<u64>,
    delay: Vec<(u64, u64)>,
    sever: Vec<u64>,
    restore: bool,
    emitted: u64,
    /// Withheld frame bytes with their release ordinal.
    held: Vec<(u64, Vec<u8>)>,
    released: VecDeque<Vec<u8>>,
}

impl FaultInjector {
    /// Account one frame emission and decide its fate.
    pub fn on_emit(&mut self) -> FaultAction {
        self.emitted += 1;
        let n = self.emitted;
        self.queue_releases();
        if let Some(i) = self.drop.iter().position(|&f| f == n) {
            self.drop.swap_remove(i);
            return FaultAction::Drop;
        }
        if let Some(i) = self.duplicate.iter().position(|&f| f == n) {
            self.duplicate.swap_remove(i);
            return FaultAction::Duplicate;
        }
        if let Some(i) = self.delay.iter().position(|&(f, _)| f == n) {
            let (_, by) = self.delay.swap_remove(i);
            return FaultAction::Delay(by.max(1));
        }
        FaultAction::Pass
    }

    /// Whether the next emission is scheduled no fault ([`FaultAction::Pass`]).
    pub fn next_passes(&self) -> bool {
        let n = self.emitted + 1;
        !self.drop.contains(&n)
            && !self.duplicate.contains(&n)
            && !self.delay.iter().any(|&(f, _)| f == n)
    }

    /// Withhold `bytes` until `by` further frames have been emitted.
    pub fn hold(&mut self, bytes: Vec<u8>, by: u64) {
        self.held.push((self.emitted + by, bytes));
    }

    fn queue_releases(&mut self) {
        let n = self.emitted;
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= n {
                let (_, bytes) = self.held.swap_remove(i);
                self.released.push_back(bytes);
            } else {
                i += 1;
            }
        }
    }

    /// Withheld frames whose release point has passed, in release order.
    pub fn take_released(&mut self) -> Vec<Vec<u8>> {
        self.released.drain(..).collect()
    }

    /// A sever due at or before the current emission count, if any
    /// (consumed: fires once).
    pub fn sever_due(&mut self) -> Option<u64> {
        match self.sever.first() {
            Some(&at) if at <= self.emitted => {
                self.sever.remove(0);
                Some(at)
            }
            _ => None,
        }
    }

    /// Whether a severed connection may be re-established.
    pub fn allow_restore(&self) -> bool {
        self.restore
    }

    /// Forget withheld frames (called on a connection fault: the frames
    /// live on in the replay ring and will be re-sent after resume).
    pub fn clear_held(&mut self) {
        self.held.clear();
        self.released.clear();
    }

    /// Frames emitted so far (test/diagnostic hook).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_roundtrip_with_defaults() {
        let plan = FaultPlan {
            links: vec![
                LinkFault {
                    from: 0,
                    to: 1,
                    drop: vec![3],
                    duplicate: vec![5],
                    delay: vec![DelaySpec { frame: 7, by: 2 }],
                    sever: vec![SeverSpec { after_frame: 10 }],
                    restore: false,
                },
                LinkFault::clean(1, 0),
            ],
        };
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        // Omitted fields deserialize to their defaults.
        let sparse = FaultPlan::from_json(r#"{"links":[{"from":2,"to":0,"drop":[1]}]}"#).unwrap();
        assert_eq!(sparse.links[0].drop, vec![1]);
        assert!(sparse.links[0].duplicate.is_empty());
        assert!(sparse.links[0].sever.is_empty());
        assert!(sparse.links[0].restore, "restore defaults to true");
        let empty = FaultPlan::from_json("{}").unwrap();
        assert!(empty.links.is_empty());
    }

    #[test]
    fn injector_actions_fire_once_in_order() {
        let plan = FaultPlan {
            links: vec![LinkFault {
                from: 0,
                to: 1,
                drop: vec![2],
                duplicate: vec![3],
                delay: vec![DelaySpec { frame: 4, by: 1 }],
                sever: vec![SeverSpec { after_frame: 6 }],
                restore: true,
            }],
        };
        assert!(plan.injector_for(1, 0).is_none());
        let mut inj = plan.injector_for(0, 1).expect("configured link");
        assert!(inj.next_passes());
        assert_eq!(inj.on_emit(), FaultAction::Pass); // 1
        assert!(!inj.next_passes());
        assert_eq!(inj.on_emit(), FaultAction::Drop); // 2
        assert_eq!(inj.on_emit(), FaultAction::Duplicate); // 3
        assert_eq!(inj.on_emit(), FaultAction::Delay(1)); // 4
        inj.hold(vec![0xAB], 1);
        assert!(inj.take_released().is_empty(), "not due yet");
        assert_eq!(inj.on_emit(), FaultAction::Pass); // 5 → release point
        assert_eq!(inj.take_released(), vec![vec![0xAB]]);
        assert!(inj.sever_due().is_none());
        assert_eq!(inj.on_emit(), FaultAction::Pass); // 6
        assert_eq!(inj.sever_due(), Some(6));
        assert!(inj.sever_due().is_none(), "sever fires once");
        // Ordinals past the schedule pass untouched (one-shot semantics).
        for _ in 0..10 {
            assert_eq!(inj.on_emit(), FaultAction::Pass);
        }
        assert!(inj.allow_restore());
    }

    #[test]
    fn restore_false_wins_across_merged_entries() {
        let plan = FaultPlan {
            links: vec![
                LinkFault {
                    restore: false,
                    sever: vec![SeverSpec { after_frame: 1 }],
                    ..LinkFault::clean(0, 1)
                },
                LinkFault::clean(0, 1),
            ],
        };
        let inj = plan.injector_for(0, 1).unwrap();
        assert!(!inj.allow_restore());
    }
}
