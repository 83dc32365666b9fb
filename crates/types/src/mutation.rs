//! The mutation (change-data-capture) vocabulary.
//!
//! The paper freezes the hidden database for the duration of a rerank, but
//! real inventories move — flights sell out, listings appear — and a
//! knowledge plane that replays sealed result streams forever would serve
//! tuples the server no longer holds. A server that offers
//! `Capability::MutationFeed` assigns every data change a **monotonically
//! increasing sequence number** and lets clients poll the delta log:
//!
//! * [`Mutation`] — one change, stamped with its sequence number,
//! * [`MutationKind`] — insert / delete / update (an update is semantically
//!   delete-then-insert of the same tuple id),
//! * [`MutationLog`] — the deltas after a watermark, plus a `gap` flag set
//!   when the server compacted its log past the watermark and exact replay
//!   of the missing prefix is impossible (clients must fall back to a full
//!   re-drive).
//!
//! Sequence numbers start at 1; watermark `0` means "nothing observed yet".

use crate::tuple::{Tuple, TupleId};
use std::sync::Arc;

/// The payload of one data change.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationKind {
    /// A new tuple appeared. Its id was not previously present.
    Insert(Arc<Tuple>),
    /// The tuple with this id disappeared.
    Delete(TupleId),
    /// The tuple with this id changed values: delete-then-insert under one
    /// sequence number, carrying the *new* version.
    Update(Arc<Tuple>),
}

/// One data change, stamped with its server-assigned sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    /// Monotonically increasing sequence number, starting at 1.
    pub seq: u64,
    /// What changed.
    pub kind: MutationKind,
}

/// The answer to "what changed since watermark `w`?".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MutationLog {
    /// Deltas with `seq > w`, in sequence order.
    pub deltas: Vec<Mutation>,
    /// True when the server compacted its log past `w`: some deltas after
    /// the watermark are gone, so `deltas` is *not* a complete replay and
    /// the client must rebuild from scratch instead of delta-repairing.
    pub gap: bool,
}

impl MutationLog {
    /// The highest sequence number in the log, if any.
    pub fn max_seq(&self) -> Option<u64> {
        self.deltas.last().map(|m| m.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_reports_its_high_watermark() {
        assert_eq!(MutationLog::default().max_seq(), None);
        let log = MutationLog {
            deltas: vec![
                Mutation {
                    seq: 4,
                    kind: MutationKind::Delete(TupleId(0)),
                },
                Mutation {
                    seq: 6,
                    kind: MutationKind::Delete(TupleId(1)),
                },
            ],
            gap: true,
        };
        assert_eq!(log.max_seq(), Some(6));
    }
}
