//! Error types for the simulation substrate.

use crate::cache::ADDR_BITS;
use std::error::Error;
use std::fmt;

/// Error raised while validating or driving the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A cache configuration is geometrically impossible (size not divisible
    /// by `ways * line_size`, zero ways, non power-of-two set count, ...).
    InvalidCacheConfig {
        /// Human-readable description of the geometry problem.
        reason: String,
    },
    /// A machine configuration is inconsistent (no cores, zero frequency, ...).
    InvalidMachineConfig {
        /// Human-readable description of the topology problem.
        reason: String,
    },
    /// A core id referenced a core that does not exist on the machine.
    UnknownCore {
        /// The offending core index.
        core: usize,
    },
    /// A NUMA node referenced a socket that does not exist on the machine.
    UnknownNumaNode {
        /// The offending node index.
        node: usize,
    },
    /// A memory access named an address at or above `2^`[`ADDR_BITS`].
    AddressOutOfRange {
        /// The offending byte address.
        addr: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidCacheConfig { reason } => {
                write!(f, "invalid cache configuration: {reason}")
            }
            SimError::InvalidMachineConfig { reason } => {
                write!(f, "invalid machine configuration: {reason}")
            }
            SimError::UnknownCore { core } => write!(f, "unknown core id {core}"),
            SimError::UnknownNumaNode { node } => write!(f, "unknown NUMA node {node}"),
            SimError::AddressOutOfRange { addr } => {
                write!(f, "address {addr:#x} is wider than {ADDR_BITS} bits")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = SimError::InvalidCacheConfig {
            reason: "zero ways".to_string(),
        };
        let msg = err.to_string();
        assert!(msg.contains("invalid cache configuration"));
        assert!(msg.contains("zero ways"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn unknown_core_display() {
        assert_eq!(
            SimError::UnknownCore { core: 7 }.to_string(),
            "unknown core id 7"
        );
    }
}
