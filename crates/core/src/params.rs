//! Runtime configuration.

use std::time::Duration;

use crate::collectives::CollectiveScheme;

/// What a socket transport backend does when a peer connection cannot be
/// established or breaks. Used in two places: connect-time dialing during
/// an `smi-launch` child's bootstrap (a fixed 100 × 20 ms retry) and
/// mid-stream recovery after an established data connection fails
/// ([`crate::RuntimeParams::stream_reconnect`]). Mid-stream recovery is
/// lossless: the session/replay layer of the socket transport re-handshakes
/// with the last acknowledged sequence number and replays unacked frames,
/// so a healed connection delivers every frame exactly once and in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReconnectPolicy {
    /// Fail on the first connect error (or, mid-stream, turn the first I/O
    /// fault directly into [`crate::SmiError::PeerDisconnected`]).
    Fail,
    /// Retry up to `attempts` times with jittered exponential backoff, then
    /// fail. Attempt 0 never sleeps; attempt `k >= 1` sleeps a uniformly
    /// jittered duration in `[d/2, d]` where
    /// `d = min(backoff * multiplier^(k-1), max_backoff)`. At connect time
    /// this is also the knob that lets a child process start before its
    /// peers have bound their listeners.
    Retry {
        /// Maximum attempts (>= 1).
        attempts: u32,
        /// Base sleep before the second attempt.
        backoff: Duration,
        /// Ceiling on the exponentially grown sleep.
        max_backoff: Duration,
        /// Growth factor per attempt (values <= 1.0 degenerate to a fixed
        /// jittered sleep of `backoff`).
        multiplier: f64,
    },
}

impl ReconnectPolicy {
    /// A fixed-sleep retry policy (no exponential growth): the historical
    /// shape, still what bootstrap dialing wants.
    pub const fn retry_fixed(attempts: u32, backoff: Duration) -> Self {
        ReconnectPolicy::Retry {
            attempts,
            backoff,
            max_backoff: backoff,
            multiplier: 1.0,
        }
    }

    /// Maximum number of attempts this policy allows (1 for [`Fail`]).
    ///
    /// [`Fail`]: ReconnectPolicy::Fail
    pub fn max_attempts(&self) -> u32 {
        match self {
            ReconnectPolicy::Fail => 1,
            ReconnectPolicy::Retry { attempts, .. } => (*attempts).max(1),
        }
    }

    /// Jittered sleep to take *before* attempt `attempt` (0-based).
    /// Attempt 0 never sleeps. `seed` decorrelates concurrent dialers;
    /// pass anything stable-ish (rank, peer index, a counter).
    pub fn delay_for(&self, attempt: u32, seed: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let (backoff, max_backoff, multiplier) = match self {
            ReconnectPolicy::Fail => return Duration::ZERO,
            ReconnectPolicy::Retry {
                backoff,
                max_backoff,
                multiplier,
                ..
            } => (*backoff, *max_backoff, *multiplier),
        };
        let base = backoff.as_nanos() as f64;
        let cap = max_backoff.max(backoff).as_nanos() as f64;
        let grown = if multiplier > 1.0 {
            (base * multiplier.powi(attempt as i32 - 1)).min(cap)
        } else {
            base
        };
        // Uniform jitter in [grown/2, grown] so concurrent dialers spread out.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt),
        );
        let lo = grown / 2.0;
        let jittered = lo + rng.gen_range(0.0..1.0) * (grown - lo);
        Duration::from_nanos(jittered as u64)
    }
}

/// Configuration of the thread-based SMI runtime.
#[derive(Debug, Clone)]
pub struct RuntimeParams {
    /// Capacity, in bursts of up to `burst_packets` packets, of the FIFOs
    /// between application endpoints and CK modules — the asynchronicity
    /// degree *k* of §3.3 (each op's `buffer_depth` can raise it). An
    /// endpoint sends through one FIFO (a lane) into every CKS of its rank,
    /// and the depth holds per lane. Programs must not rely on it for
    /// correctness.
    pub endpoint_fifo_depth: usize,
    /// Capacity, in bursts of up to `burst_packets` packets, of the inter-CK
    /// and link FIFOs.
    pub ck_fifo_depth: usize,
    /// CKS/CKR polling persistence `R` (§4.3).
    pub poll_persistence: u32,
    /// Reduce flow-control credits `C` in elements (§4.4).
    pub reduce_credits: u64,
    /// How long a blocking call (p2p or collective) may stall before
    /// reporting [`crate::SmiError::Timeout`] (guards tests against
    /// mismatched programs hanging forever).
    pub blocking_timeout: Duration,
    /// Optional *overall* bound on each blocking collective call. The
    /// stall bound above resets on every bit of progress, so a peer that
    /// trickles one packet per poll can extend a blocking collective far
    /// past `blocking_timeout`; when set, this caps the total elapsed time
    /// of one blocking call regardless of progress
    /// ([`crate::SmiError::DeadlineExceeded`]). `None` keeps calls
    /// stall-bounded only.
    pub blocking_deadline: Option<Duration>,
    /// How collectives route traffic between members
    /// ([`CollectiveScheme`]): `Linear` (the paper's root-centric shape,
    /// the regression baseline) or `Tree` (the scaling scheme past ~16
    /// ranks: bcast and reduce fan out and combine along the hop tree, and
    /// a gather root grants several members ahead; scatter and gather
    /// blocks go root ↔ owner under both). One scheme holds for the whole
    /// run, so every member of a collective derives the same shape.
    pub collective_scheme: CollectiveScheme,
    /// Maximum packets moved per burst on the hot path: bulk channel
    /// operations (`push_slice`/`pop_slice`) and CK forwarding hand over up
    /// to this many packets under a single queue operation, amortizing
    /// synchronization cost. `1` degenerates to per-packet handover.
    pub burst_packets: usize,
    /// Worker threads of the transport executor that drives all CK state
    /// machines (and, in task mode, the rank tasks). `0` means
    /// `std::thread::available_parallelism()`. Each worker is seeded with a
    /// contiguous block of ranks, so only block-boundary links cross threads.
    pub transport_workers: usize,
    /// Mid-stream recovery policy of socket transport backends: what a
    /// process-pair connection does when an *established* data stream
    /// suffers an I/O fault. `Retry` re-dials with jittered exponential
    /// backoff and losslessly replays unacked frames (the peer stays in a
    /// `Reconnecting` health state and channel ops keep polling); `Fail`
    /// turns the first mid-stream fault into
    /// [`crate::SmiError::PeerDisconnected`]. Ignored by the in-memory
    /// backend.
    pub stream_reconnect: ReconnectPolicy,
}

impl Default for RuntimeParams {
    fn default() -> Self {
        RuntimeParams {
            endpoint_fifo_depth: 16,
            ck_fifo_depth: 64,
            poll_persistence: 8,
            reduce_credits: 512,
            blocking_timeout: Duration::from_secs(10),
            blocking_deadline: None,
            collective_scheme: CollectiveScheme::Linear,
            burst_packets: 16,
            transport_workers: 0,
            stream_reconnect: ReconnectPolicy::Retry {
                attempts: 10,
                backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
                multiplier: 2.0,
            },
        }
    }
}

impl RuntimeParams {
    /// A tight-buffer configuration for stress-testing backpressure (tiny
    /// FIFOs everywhere, per-packet handover).
    pub fn tight() -> Self {
        RuntimeParams {
            endpoint_fifo_depth: 1,
            ck_fifo_depth: 2,
            poll_persistence: 1,
            reduce_credits: 4,
            burst_packets: 1,
            ..Self::default()
        }
    }

    /// The resolved executor worker count (`transport_workers`, with `0`
    /// mapped to the machine's available parallelism).
    pub fn resolved_workers(&self) -> usize {
        if self.transport_workers > 0 {
            self.transport_workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let p = RuntimeParams::default();
        assert!(p.endpoint_fifo_depth >= 1);
        assert!(p.reduce_credits >= 1);
        let t = RuntimeParams::tight();
        assert_eq!(t.endpoint_fifo_depth, 1);
    }

    #[test]
    fn attempt_zero_never_sleeps() {
        let policies = [
            ReconnectPolicy::Fail,
            ReconnectPolicy::retry_fixed(5, Duration::from_secs(10)),
            ReconnectPolicy::Retry {
                attempts: 5,
                backoff: Duration::from_secs(10),
                max_backoff: Duration::from_secs(60),
                multiplier: 2.0,
            },
        ];
        for (i, p) in policies.iter().enumerate() {
            assert_eq!(p.delay_for(0, i as u64), Duration::ZERO, "policy {i}");
        }
    }

    #[test]
    fn backoff_grows_exponentially_with_jitter_and_cap() {
        let p = ReconnectPolicy::Retry {
            attempts: 10,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            multiplier: 2.0,
        };
        // Attempt k sleeps within [d/2, d], d = min(10ms * 2^(k-1), 80ms).
        for (attempt, cap_ms) in [(1u32, 10u64), (2, 20), (3, 40), (4, 80), (5, 80), (9, 80)] {
            let d = p.delay_for(attempt, 7);
            let cap = Duration::from_millis(cap_ms);
            assert!(d <= cap, "attempt {attempt}: {d:?} > {cap:?}");
            assert!(d >= cap / 2, "attempt {attempt}: {d:?} < {:?}", cap / 2);
        }
    }

    #[test]
    fn fixed_policy_never_grows() {
        let p = ReconnectPolicy::retry_fixed(100, Duration::from_millis(20));
        for attempt in 1..20u32 {
            let d = p.delay_for(attempt, 3);
            assert!(d <= Duration::from_millis(20));
            assert!(d >= Duration::from_millis(10));
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_spreads_across_seeds() {
        let p = ReconnectPolicy::Retry {
            attempts: 8,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            multiplier: 2.0,
        };
        assert_eq!(p.delay_for(3, 42), p.delay_for(3, 42));
        let distinct: std::collections::HashSet<Duration> =
            (0..16u64).map(|s| p.delay_for(3, s)).collect();
        assert!(distinct.len() > 1, "jitter never varied across seeds");
    }
}
