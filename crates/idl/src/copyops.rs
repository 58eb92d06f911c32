//! Copy-operation taxonomy (the paper's Table 3).
//!
//! Table 3 compares, letter by letter, the copy operations performed by
//! LRPC and by message-based RPC for calls with mutable and immutable
//! parameters. Both transports in this workspace record each byte-moving
//! step as a [`CopyOp`], so the table can be regenerated from observed
//! behaviour rather than asserted.

use core::fmt;

/// One class of copy operation, named as in Table 3.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CopyOp {
    /// Copy from client stack to message (or A-stack).
    A,
    /// Copy from sender domain to kernel domain.
    B,
    /// Copy from kernel domain to receiver domain.
    C,
    /// Copy from sender/kernel space directly to receiver/kernel domain
    /// (the restricted message path's pre-mapped buffer copy).
    D,
    /// Copy from message (or A-stack) into server stack.
    E,
    /// Copy from message (or A-stack) into the client's results.
    F,
}

impl CopyOp {
    /// The Table 3 description of this operation.
    pub fn description(self) -> &'static str {
        match self {
            CopyOp::A => "copy from client stack to message (or A-stack)",
            CopyOp::B => "copy from sender domain to kernel domain",
            CopyOp::C => "copy from kernel domain to receiver domain",
            CopyOp::D => "copy from sender/kernel space to receiver/kernel domain",
            CopyOp::E => "copy from message (or A-stack) into server stack",
            CopyOp::F => "copy from message (or A-stack) into client's results",
        }
    }
}

impl fmt::Display for CopyOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An append-only record of the copy operations one call performed.
#[derive(Clone, Debug, Default)]
pub struct CopyLog {
    ops: Vec<(CopyOp, usize)>,
}

impl CopyLog {
    /// An empty log.
    pub fn new() -> CopyLog {
        CopyLog::default()
    }

    /// Records one copy of `bytes` bytes.
    pub fn record(&mut self, op: CopyOp, bytes: usize) {
        self.ops.push((op, bytes));
    }

    /// All recorded operations in order.
    pub fn ops(&self) -> &[(CopyOp, usize)] {
        &self.ops
    }

    /// The distinct operation letters performed, in Table 3 order.
    pub fn letters(&self) -> Vec<CopyOp> {
        let mut ls: Vec<CopyOp> = self.ops.iter().map(|(op, _)| *op).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Letters formatted as the paper prints them (e.g. `"ABCE"`).
    pub fn letters_string(&self) -> String {
        self.letters().iter().map(|o| format!("{o}")).collect()
    }

    /// Total copies performed (each letter occurrence counts once per
    /// parameter transfer, as the paper counts them).
    pub fn count(&self) -> usize {
        self.ops.len()
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> usize {
        self.ops.iter().map(|(_, b)| b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_are_deduped_and_sorted() {
        let mut log = CopyLog::new();
        log.record(CopyOp::E, 10);
        log.record(CopyOp::A, 10);
        log.record(CopyOp::A, 4);
        assert_eq!(log.letters(), vec![CopyOp::A, CopyOp::E]);
        assert_eq!(log.letters_string(), "AE");
        assert_eq!(log.count(), 3);
        assert_eq!(log.bytes(), 24);
    }

    #[test]
    fn descriptions_match_table_3() {
        assert!(CopyOp::D.description().contains("sender/kernel"));
        assert!(CopyOp::F.description().contains("client's results"));
    }
}
