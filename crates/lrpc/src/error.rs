//! LRPC call errors and exceptions.

use firefly::error::MemFault;
use idl::stubvm::StubError;
use kernel::objects::HandleError;

/// An error or exception raised during binding or calling.
#[derive(Clone, Debug)]
pub enum CallError {
    /// The Binding Object failed kernel validation (forged, stale, or
    /// revoked): "The kernel can detect a forged Binding Object, so clients
    /// cannot bypass the binding phase" (Section 3.1).
    InvalidBinding(HandleError),
    /// The binding exists but has been revoked (domain termination).
    BindingRevoked,
    /// The procedure identifier is out of range for the interface.
    BadProcedure {
        /// The offending index.
        index: usize,
    },
    /// The presented A-stack failed validation (outside the bound region,
    /// misaligned, or not one of the binding's A-stacks).
    BadAStack,
    /// The A-stack/linkage pair is already in use by another thread
    /// ("ensures that no other thread is currently using that
    /// A-stack/linkage pair", Section 3.2).
    AStackBusy,
    /// All of the procedure's A-stacks are in use and the wait policy gave
    /// up (Section 5.2).
    NoAStacks,
    /// The call-failed exception of Section 5.3: a domain involved in the
    /// call terminated while the call was outstanding.
    CallFailed,
    /// The call-aborted exception of Section 5.3: the client abandoned this
    /// captured thread; the thread is destroyed on release.
    CallAborted,
    /// The target (or calling) domain is not active.
    DomainDead,
    /// Stub execution failed (encoding, conformance, frame fault).
    Stub(StubError),
    /// A raw memory fault escaped the stubs.
    Mem(MemFault),
    /// The interface was not exported within the import timeout.
    ImportTimeout {
        /// The interface name that was sought.
        name: String,
    },
    /// The server procedure itself reported a failure.
    ServerFault(String),
    /// The binding is to a remote server but no remote transport was
    /// configured (Section 5.1's conventional-RPC branch).
    NoRemoteTransport,
    /// The conventional-RPC transport gave up (e.g. a packet was lost
    /// more times than the retransmission budget allows).
    Network(String),
    /// The binding's circuit breaker is open: recent consecutive failures
    /// tripped it, and the call was rejected without being attempted.
    CircuitOpen,
}

impl core::fmt::Display for CallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CallError::InvalidBinding(e) => write!(f, "invalid binding object: {e}"),
            CallError::BindingRevoked => write!(f, "binding has been revoked"),
            CallError::BadProcedure { index } => {
                write!(f, "procedure identifier {index} out of range")
            }
            CallError::BadAStack => write!(f, "A-stack failed validation"),
            CallError::AStackBusy => write!(f, "A-stack/linkage pair already in use"),
            CallError::NoAStacks => write!(f, "no A-stack available"),
            CallError::CallFailed => write!(f, "call-failed exception (domain terminated)"),
            CallError::CallAborted => write!(f, "call-aborted exception (thread abandoned)"),
            CallError::DomainDead => write!(f, "domain is not active"),
            CallError::Stub(e) => write!(f, "stub failure: {e}"),
            CallError::Mem(e) => write!(f, "memory fault: {e}"),
            CallError::ImportTimeout { name } => {
                write!(f, "interface `{name}` was not exported in time")
            }
            CallError::ServerFault(msg) => write!(f, "server fault: {msg}"),
            CallError::NoRemoteTransport => {
                write!(f, "remote binding but no remote transport configured")
            }
            CallError::Network(msg) => write!(f, "network failure: {msg}"),
            CallError::CircuitOpen => write!(f, "circuit breaker open; call rejected"),
        }
    }
}

impl std::error::Error for CallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CallError::InvalidBinding(e) => Some(e),
            CallError::Stub(e) => Some(e),
            CallError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StubError> for CallError {
    fn from(e: StubError) -> CallError {
        CallError::Stub(e)
    }
}

impl From<MemFault> for CallError {
    fn from(e: MemFault) -> CallError {
        CallError::Mem(e)
    }
}

impl From<HandleError> for CallError {
    fn from(e: HandleError) -> CallError {
        CallError::InvalidBinding(e)
    }
}
