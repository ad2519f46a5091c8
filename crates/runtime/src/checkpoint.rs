//! Versioned checkpoint/resume for long evaluations.
//!
//! A multi-epoch encrypted computation (the logistic-regression training
//! workload runs minutes at production parameters) must survive preemption
//! without redoing completed epochs. A [`Checkpoint`] snapshots exactly
//! what the evaluator's determinism contract needs to resume
//! bit-identically: the live ciphertexts in the `bp-ckks` wire format
//! (which preserves exact factored scales and chain positions), the step
//! counter, and the workload key — protected end-to-end by an FNV-1a
//! checksum and the wire layer's full structural validation on restore.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "BPCK" | version u16 | workload: len u32 + bytes | step u64
//!        | program_pos: flag u8 (+ pos u64 when 1)
//!        | slot_count u32 | { name: len u32 + bytes, data: len u32 + bytes }*
//!        | fnv1a64 over everything above: u64
//! ```
//!
//! When the job executes a [`bp_ir::Program`] (see
//! [`crate::Runtime::run_program`]), `program_pos` records the exact op
//! position so resume is "continue at `ops[pos]`" rather than a
//! workload-specific step convention. Only the current version is read:
//! version 1 (no `program_pos`) is rejected as unsupported.

use bp_ckks::wire::{read_ciphertext, write_ciphertext, WireError};
use bp_ckks::{Ciphertext, CkksContext};
use std::fmt;

/// File magic for checkpoints ("BPCK").
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"BPCK";
/// Checkpoint format version, the only one written and read.
pub const CHECKPOINT_VERSION: u16 = 2;

/// Why a checkpoint could not be decoded or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The byte stream ended before a required field.
    Truncated {
        /// Bytes the decoder needed next.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The first four bytes are not [`CHECKPOINT_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The version field names a format this build cannot read.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// The trailing checksum does not match the payload — the checkpoint
    /// was corrupted at rest or in transit.
    ChecksumMismatch {
        /// Checksum stored in the stream.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A length field or string is inconsistent with the stream.
    Malformed(&'static str),
    /// A requested slot name is not present in the checkpoint.
    MissingSlot {
        /// The name requested.
        name: String,
    },
    /// A slot's ciphertext failed wire decoding or validation against the
    /// restoring context.
    Wire {
        /// The slot that failed.
        name: String,
        /// The wire-layer error.
        source: WireError,
    },
}

impl CheckpointError {
    /// True for corruption-class failures a re-read or re-transfer may
    /// fix; `false` for structural mismatches (wrong version, missing
    /// slot, incompatible context).
    pub fn is_transient(&self) -> bool {
        match self {
            CheckpointError::ChecksumMismatch { .. } => true,
            CheckpointError::Wire { source, .. } => source.is_transient(),
            _ => false,
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { need, have } => {
                write!(
                    f,
                    "checkpoint truncated: need {need} more bytes, have {have}"
                )
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "bad checkpoint magic {found:?} (expected \"BPCK\")")
            }
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::MissingSlot { name } => {
                write!(f, "checkpoint has no slot named '{name}'")
            }
            CheckpointError::Wire { name, source } => {
                write!(f, "checkpoint slot '{name}' failed wire decoding: {source}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Wire { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A resumable snapshot of an evaluation in progress.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    workload: String,
    step: u64,
    program_pos: Option<u64>,
    slots: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// An empty checkpoint for `workload` at `step`.
    pub fn new(workload: &str, step: u64) -> Self {
        Self {
            workload: workload.to_string(),
            step,
            program_pos: None,
            slots: Vec::new(),
        }
    }

    /// Workload key recorded at snapshot time.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Step counter recorded at snapshot time (e.g. completed epochs).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The IR op position this snapshot was taken at: `ops[..pos]` of the
    /// job's [`bp_ir::Program`] are complete, `ops[pos]` is next. `None`
    /// for non-program jobs.
    pub fn program_pos(&self) -> Option<u64> {
        self.program_pos
    }

    /// Records the IR op position (see [`Checkpoint::program_pos`]).
    pub fn set_program_pos(&mut self, pos: u64) {
        self.program_pos = Some(pos);
    }

    /// Names of the stored ciphertext slots, in insertion order.
    pub fn slot_names(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|(n, _)| n.as_str())
    }

    /// Stores `ct` under `name` (replacing any previous entry of the same
    /// name) in the validated wire format.
    pub fn insert(&mut self, name: &str, ct: &Ciphertext) {
        let bytes = write_ciphertext(ct);
        if let Some(slot) = self.slots.iter_mut().find(|(n, _)| n == name) {
            slot.1 = bytes;
        } else {
            self.slots.push((name.to_string(), bytes));
        }
    }

    /// Decodes and fully validates the ciphertext stored under `name`
    /// against `ctx` (the context must be parameterized identically to
    /// the one that produced the snapshot).
    pub fn restore(&self, ctx: &CkksContext, name: &str) -> Result<Ciphertext, CheckpointError> {
        let (_, bytes) = self.slots.iter().find(|(n, _)| n == name).ok_or_else(|| {
            CheckpointError::MissingSlot {
                name: name.to_string(),
            }
        })?;
        read_ciphertext(ctx, bytes).map_err(|source| CheckpointError::Wire {
            name: name.to_string(),
            source,
        })
    }

    /// Raw wire bytes stored under `name`, if present. Exposed so tests
    /// can assert bit-identical resume without decoding.
    pub fn slot_bytes(&self, name: &str) -> Option<&[u8]> {
        self.slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Serializes the checkpoint (payload + trailing FNV-1a checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        put_bytes(&mut out, self.workload.as_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        match self.program_pos {
            Some(pos) => {
                out.push(1);
                out.extend_from_slice(&pos.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for (name, data) in &self.slots {
            put_bytes(&mut out, name.as_bytes());
            put_bytes(&mut out, data);
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a checkpoint, verifying magic, version, structural
    /// consistency, and the checksum. Slot ciphertexts are validated
    /// lazily by [`Checkpoint::restore`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() {
            return Err(CheckpointError::Truncated {
                need: CHECKPOINT_MAGIC.len(),
                have: bytes.len(),
            });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&bytes[..4]);
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        // Checksum covers everything before its own 8 bytes.
        if bytes.len() < 4 + 2 + 8 {
            return Err(CheckpointError::Truncated {
                need: 4 + 2 + 8,
                have: bytes.len(),
            });
        }
        let payload_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(
            bytes[payload_len..]
                .try_into()
                .expect("slice of the final 8 bytes"),
        );
        let computed = fnv1a64(&bytes[..payload_len]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader {
            buf: &bytes[..payload_len],
            pos: 4,
        };
        let version = u16::from_le_bytes(
            r.take(2)?
                .try_into()
                .expect("take(2) yields exactly 2 bytes"),
        );
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let workload = String::from_utf8(r.take_prefixed()?.to_vec())
            .map_err(|_| CheckpointError::Malformed("workload is not valid UTF-8"))?;
        let step = u64::from_le_bytes(
            r.take(8)?
                .try_into()
                .expect("take(8) yields exactly 8 bytes"),
        );
        let program_pos = match r.take(1)?[0] {
            0 => None,
            1 => Some(u64::from_le_bytes(
                r.take(8)?
                    .try_into()
                    .expect("take(8) yields exactly 8 bytes"),
            )),
            _ => return Err(CheckpointError::Malformed("program_pos flag is not 0 or 1")),
        };
        let slot_count = u32::from_le_bytes(
            r.take(4)?
                .try_into()
                .expect("take(4) yields exactly 4 bytes"),
        );
        let mut slots = Vec::new();
        for _ in 0..slot_count {
            let name = String::from_utf8(r.take_prefixed()?.to_vec())
                .map_err(|_| CheckpointError::Malformed("slot name is not valid UTF-8"))?;
            let data = r.take_prefixed()?.to_vec();
            slots.push((name, data));
        }
        if r.pos != r.buf.len() {
            return Err(CheckpointError::Malformed(
                "trailing bytes after the last slot",
            ));
        }
        Ok(Self {
            workload,
            step,
            program_pos,
            slots,
        })
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(CheckpointError::Truncated { need: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_prefixed(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = u32::from_le_bytes(
            self.take(4)?
                .try_into()
                .expect("take(4) yields exactly 4 bytes"),
        ) as usize;
        self.take(len)
    }
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty for
/// detecting at-rest corruption (not a cryptographic MAC).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut cp = Checkpoint::new("logreg", 3);
        cp.slots.push(("w".to_string(), vec![1, 2, 3, 4]));
        cp.slots.push(("x".to_string(), vec![9; 17]));
        cp
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cp = sample();
        let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("roundtrip");
        assert_eq!(cp, back);
        assert_eq!(back.workload(), "logreg");
        assert_eq!(back.step(), 3);
        assert_eq!(back.slot_bytes("x"), Some(&[9u8; 17][..]));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut])
                .expect_err("truncated checkpoint must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bitflips_are_detected() {
        let bytes = sample().to_bytes();
        for pos in [0, 5, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "bitflip at {pos} must be detected"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected_with_valid_checksum() {
        let mut cp_bytes = sample().to_bytes();
        // Rewrite the version field and re-stamp the checksum so only the
        // version check can fire.
        cp_bytes[4] = 0xFF;
        let payload_len = cp_bytes.len() - 8;
        let sum = fnv1a64(&cp_bytes[..payload_len]).to_le_bytes();
        cp_bytes[payload_len..].copy_from_slice(&sum);
        let err = Checkpoint::from_bytes(&cp_bytes).expect_err("version must be rejected");
        assert_eq!(err, CheckpointError::UnsupportedVersion { found: 0x00FF });
        assert!(!err.is_transient());
    }

    #[test]
    fn checksum_mismatch_is_transient_missing_slot_is_not() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let err = Checkpoint::from_bytes(&bytes).expect_err("bad checksum");
        assert!(err.is_transient());
        let missing = CheckpointError::MissingSlot {
            name: "nope".into(),
        };
        assert!(!missing.is_transient());
    }

    #[test]
    fn program_pos_roundtrips_and_v1_streams_are_rejected() {
        let mut cp = sample();
        cp.set_program_pos(17);
        let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("v2 roundtrip");
        assert_eq!(back.program_pos(), Some(17));
        assert_eq!(back, cp);

        // Hand-build the retired version-1 layout (no program_pos field)
        // with a valid checksum: only the version check may reject it.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&CHECKPOINT_MAGIC);
        v1.extend_from_slice(&1u16.to_le_bytes());
        put_bytes(&mut v1, b"logreg");
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        put_bytes(&mut v1, b"w");
        put_bytes(&mut v1, &[1, 2, 3, 4]);
        let sum = fnv1a64(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&v1),
            Err(CheckpointError::UnsupportedVersion { found: 1 })
        );
    }

    #[test]
    fn insert_replaces_existing_slot() {
        let mut cp = Checkpoint::new("w", 0);
        cp.slots.push(("a".to_string(), vec![1]));
        // insert() with a real ciphertext is exercised in the integration
        // tests; here we only check the replace-by-name contract shape.
        assert_eq!(cp.slot_bytes("a"), Some(&[1u8][..]));
    }
}
