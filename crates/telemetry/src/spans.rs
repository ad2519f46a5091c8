//! Typed names for the hot paths timed by profiler frames.
//!
//! [`span`] opens a [`crate::profile::Frame`] named after a [`SpanKind`].
//! The frame is the span's only record: its count, time and calling op
//! all live in the profiler's span tree, and per-kind totals are read
//! back with [`crate::profile::SpanTree::by_leaf`]. With the `enabled`
//! feature off the frame is a zero-sized type and open/drop compile to
//! nothing.

/// Hot paths covered by timing spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Forward NTT of one residue polynomial (`NttTable::forward`).
    NttForward,
    /// Inverse NTT of one residue polynomial (`NttTable::inverse`).
    NttInverse,
    /// One approximate basis conversion (`BasisConverter::convert*`).
    BasisConvert,
    /// One hybrid key-switch inner product (`Evaluator::apply_ksk`).
    KeySwitch,
    /// Key generation (secret/public/evaluation keys).
    KeyGen,
    /// Ciphertext wire serialization (`write_ciphertext`).
    Serialize,
    /// Ciphertext wire deserialization (`read_ciphertext`).
    Deserialize,
}

/// Number of span kinds in [`SpanKind::ALL`].
pub const NUM_SPAN_KINDS: usize = 7;

impl SpanKind {
    /// Every span kind, in stable report order.
    pub const ALL: [SpanKind; NUM_SPAN_KINDS] = [
        SpanKind::NttForward,
        SpanKind::NttInverse,
        SpanKind::BasisConvert,
        SpanKind::KeySwitch,
        SpanKind::KeyGen,
        SpanKind::Serialize,
        SpanKind::Deserialize,
    ];

    /// Stable snake_case name: the frame name in the span tree, and the
    /// `kind` label in reports and exposition.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::NttForward => "ntt_forward",
            SpanKind::NttInverse => "ntt_inverse",
            SpanKind::BasisConvert => "basis_convert",
            SpanKind::KeySwitch => "keyswitch",
            SpanKind::KeyGen => "keygen",
            SpanKind::Serialize => "serialize",
            SpanKind::Deserialize => "deserialize",
        }
    }
}

/// Opens a profiler frame over hot path `kind`, measured from this call
/// until it is dropped (one clock read at each end). Inert when
/// telemetry is not live at open time.
#[inline]
pub fn span(kind: SpanKind) -> crate::profile::Frame {
    crate::profile::frame(kind.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in SpanKind::ALL {
            assert!(seen.insert(k.name()), "duplicate span name {}", k.name());
        }
    }
}
