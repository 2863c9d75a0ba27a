//! Error type of the SMI runtime.

use std::fmt;

use smi_wire::Datatype;

/// Errors surfaced by the SMI runtime API.
#[derive(Debug, Clone, PartialEq)]
pub enum SmiError {
    /// Wire-level failure (rank/port out of range, bad encoding).
    Wire(smi_wire::WireError),
    /// The requested port/kind has no endpoint in this rank's generated
    /// design — the op metadata did not declare it ("all ports must be known
    /// at compile time", §2.2).
    NoSuchEndpoint {
        /// Requested port.
        port: usize,
        /// What kind of endpoint was requested.
        kind: &'static str,
    },
    /// The port's endpoint is already held by an open channel; transient
    /// channels on one port must be sequential.
    EndpointBusy {
        /// The contested port.
        port: usize,
    },
    /// Element type of the channel does not match the declared datatype.
    TypeMismatch {
        /// Declared in the op metadata.
        declared: Datatype,
        /// Requested by the generic channel type.
        requested: Datatype,
    },
    /// More elements pushed/popped than the channel was opened with.
    CountExceeded {
        /// The channel's element count.
        count: u64,
    },
    /// A peer rank index is outside the communicator.
    BadRank {
        /// The offending communicator rank.
        rank: usize,
        /// Size of the communicator.
        size: usize,
    },
    /// A blocking pop/credit wait timed out — almost always a mismatched
    /// program (peer never sent) or a count mismatch.
    Timeout {
        /// What the channel was waiting for.
        waiting_for: &'static str,
    },
    /// A blocking collective call exceeded its overall deadline
    /// ([`crate::RuntimeParams::blocking_deadline`]). Unlike
    /// [`SmiError::Timeout`] this fires even while progress trickles in:
    /// it bounds total elapsed time, not the stall.
    DeadlineExceeded {
        /// What the channel was waiting for.
        waiting_for: &'static str,
    },
    /// The cooperative task watchdog observed this rank making no progress
    /// for a whole stall window while nothing else remained to wait for —
    /// a livelocked or deadlocked rank task.
    Stalled {
        /// The rank whose task made no progress.
        rank: usize,
    },
    /// The transport layer shut down while the channel still needed it.
    TransportClosed,
    /// An operating-system I/O failure in a socket transport backend
    /// (connect, bind, read or write). Carries the formatted
    /// [`std::io::Error`]; convert with the `From<std::io::Error>` impl.
    Io {
        /// `ErrorKind` plus the OS error message.
        detail: String,
    },
    /// A peer process's socket link died (EOF or a hard I/O error) while
    /// channels still depended on it. Unlike [`SmiError::Timeout`] this
    /// names which peer is gone; `rank` is the lowest world rank hosted by
    /// the dead process.
    PeerDisconnected {
        /// Lowest world rank of the disconnected peer process.
        rank: usize,
    },
    /// A packet with an unexpected op arrived on this channel's port.
    ProtocolViolation {
        /// Human-readable description.
        detail: String,
    },
    /// A single encoded frame exceeded the whole replay-ring byte budget
    /// (4 MiB per connection), so mid-stream
    /// recovery could never replay it. A merely *full* ring is ordinary
    /// backpressure; this fires only when the budget is smaller than one
    /// frame — a configuration error, reported instead of growing memory
    /// without bound.
    ReplayOverflow {
        /// Bytes the frame needed.
        needed: usize,
        /// The configured replay budget in bytes.
        budget: usize,
    },
}

impl fmt::Display for SmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmiError::Wire(e) => write!(f, "wire error: {e}"),
            SmiError::NoSuchEndpoint { port, kind } => {
                write!(f, "no {kind} endpoint generated for port {port}")
            }
            SmiError::EndpointBusy { port } => {
                write!(f, "port {port} already has an open channel")
            }
            SmiError::TypeMismatch {
                declared,
                requested,
            } => {
                write!(
                    f,
                    "channel datatype mismatch: declared {declared:?}, requested {requested:?}"
                )
            }
            SmiError::CountExceeded { count } => {
                write!(f, "channel count {count} exceeded")
            }
            SmiError::BadRank { rank, size } => {
                write!(f, "rank {rank} outside communicator of size {size}")
            }
            SmiError::Timeout { waiting_for } => {
                write!(f, "timed out waiting for {waiting_for}")
            }
            SmiError::DeadlineExceeded { waiting_for } => {
                write!(
                    f,
                    "overall deadline exceeded while waiting for {waiting_for}"
                )
            }
            SmiError::Stalled { rank } => {
                write!(f, "rank {rank} made no progress for a full stall window")
            }
            SmiError::TransportClosed => write!(f, "transport layer closed"),
            SmiError::Io { detail } => write!(f, "transport I/O error: {detail}"),
            SmiError::PeerDisconnected { rank } => {
                write!(f, "peer rank {rank} disconnected (process link lost)")
            }
            SmiError::ProtocolViolation { detail } => write!(f, "protocol violation: {detail}"),
            SmiError::ReplayOverflow { needed, budget } => write!(
                f,
                "replay ring overflow: one frame needs {needed} bytes but the replay budget is {budget} bytes"
            ),
        }
    }
}

impl std::error::Error for SmiError {}

impl From<smi_wire::WireError> for SmiError {
    fn from(e: smi_wire::WireError) -> Self {
        SmiError::Wire(e)
    }
}

impl From<std::io::Error> for SmiError {
    fn from(e: std::io::Error) -> Self {
        SmiError::Io {
            detail: format!("{:?}: {e}", e.kind()),
        }
    }
}
