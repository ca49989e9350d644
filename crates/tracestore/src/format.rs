//! The packed binary trace format.
//!
//! A trace file holds the exact instruction stream a
//! [`horizon_trace::TraceGenerator`] expands for one `(profile, seed)`
//! pair, cut to a fixed window. The encoding exploits the stream's
//! structure — program counters are almost always sequential, data
//! addresses cluster around the previous access, branch targets sit near
//! the branch — to pack one [`Instruction`] (24 bytes in memory) into a
//! tag byte plus a few delta varints, well under 8 bytes on real
//! workloads and around 2–3 bytes on typical profiles.
//!
//! # Layout
//!
//! ```text
//! header   := magic[8] version:u32le instructions:u64le          (20 bytes)
//! granule  := count:u32le payload_len:u32le checksum:u64le       (16 bytes)
//!             payload[payload_len]
//! file     := header granule*
//! ```
//!
//! Each granule packs up to [`GRANULE_INSTRUCTIONS`] instructions and
//! carries an FNV-1a-64 checksum of its payload. Delta state resets at
//! every granule boundary, so each granule decodes independently and a
//! flipped bit is confined to (and detected in) one granule.
//!
//! # Per-instruction encoding
//!
//! ```text
//! tag      := bits 0..=2 opcode   (int, fp, simd, load, store,
//!                                  branch-not-taken, branch-taken)
//!             bit  3     kernel
//!             bit  4     pc-sequential (pc == prev_pc + 4; no pc delta)
//!             bits 5..=7 reserved, must be zero
//! pc delta := zigzag varint of pc - (prev_pc + 4)     (absent if bit 4)
//! operand  := loads/stores: zigzag varint of addr - prev_data_addr
//!             branches:     zigzag varint of target - pc
//! ```
//!
//! All deltas use wrapping arithmetic over `u64`, so the codec is exact
//! for *every* possible instruction, not just generator output; the
//! round-trip property tests quantify this.

use horizon_trace::{Instruction, Kind, INSTRUCTION_BYTES};
use std::io::Write;

/// File magic: identifies a horizon packed trace.
pub const MAGIC: [u8; 8] = *b"HZNTRACE";

/// Format version; bump on any change to the byte layout. Readers reject
/// other versions cleanly ([`TraceError::UnsupportedVersion`]) and the
/// store treats the file as a miss.
pub const FORMAT_VERSION: u32 = 1;

/// Instructions per granule (the checksum / delta-reset unit).
pub const GRANULE_INSTRUCTIONS: usize = 4096;

/// Fixed file-header size in bytes.
pub const HEADER_BYTES: usize = 20;

/// Fixed granule-header size in bytes.
pub const GRANULE_HEADER_BYTES: usize = 16;

const OP_INT: u8 = 0;
const OP_FP: u8 = 1;
const OP_SIMD: u8 = 2;
const OP_LOAD: u8 = 3;
const OP_STORE: u8 = 4;
const OP_BRANCH_NOT_TAKEN: u8 = 5;
const OP_BRANCH_TAKEN: u8 = 6;
const KERNEL_BIT: u8 = 1 << 3;
const SEQ_BIT: u8 = 1 << 4;
const RESERVED_BITS: u8 = 0b1110_0000;

/// Everything that can go wrong reading or writing a packed trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The file ends mid-header or mid-granule.
    Truncated,
    /// A granule's payload fails its checksum or carries an impossible
    /// instruction count.
    CorruptGranule {
        /// Zero-based granule index.
        index: usize,
    },
    /// The granules' instruction counts do not sum to the header's total.
    CountMismatch {
        /// Count declared in the header.
        declared: u64,
        /// Instructions actually present.
        found: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a packed trace (bad magic)"),
            TraceError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported trace format version {found} (expected {expected})"
                )
            }
            TraceError::Truncated => write!(f, "truncated trace file"),
            TraceError::CorruptGranule { index } => {
                write!(f, "corrupt trace granule {index} (checksum mismatch)")
            }
            TraceError::CountMismatch { declared, found } => {
                write!(
                    f,
                    "trace holds {found} instructions but header declares {declared}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Delta-coding context; reset at every granule boundary.
#[derive(Debug, Clone, Copy, Default)]
struct DeltaState {
    prev_pc: u64,
    prev_data: u64,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        // The 10th byte encodes only bit 63: anything else overflows u64.
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// FNV-1a-64 over a byte slice (granule checksums).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn encode_one(buf: &mut Vec<u8>, state: &mut DeltaState, inst: &Instruction) {
    let (op, operand) = match inst.kind {
        Kind::IntAlu => (OP_INT, None),
        Kind::FpAlu => (OP_FP, None),
        Kind::Simd => (OP_SIMD, None),
        Kind::Load { addr } => (OP_LOAD, Some(addr)),
        Kind::Store { addr } => (OP_STORE, Some(addr)),
        Kind::Branch { taken, .. } => (
            if taken {
                OP_BRANCH_TAKEN
            } else {
                OP_BRANCH_NOT_TAKEN
            },
            None,
        ),
    };
    let expected_pc = state.prev_pc.wrapping_add(INSTRUCTION_BYTES);
    let sequential = inst.pc == expected_pc;
    let mut tag = op;
    if inst.kernel {
        tag |= KERNEL_BIT;
    }
    if sequential {
        tag |= SEQ_BIT;
    }
    buf.push(tag);
    if !sequential {
        put_varint(buf, zigzag(inst.pc.wrapping_sub(expected_pc) as i64));
    }
    if let Some(addr) = operand {
        put_varint(buf, zigzag(addr.wrapping_sub(state.prev_data) as i64));
        state.prev_data = addr;
    } else if let Kind::Branch { target, .. } = inst.kind {
        put_varint(buf, zigzag(target.wrapping_sub(inst.pc) as i64));
    }
    state.prev_pc = inst.pc;
}

fn decode_one(bytes: &[u8], pos: &mut usize, state: &mut DeltaState) -> Option<Instruction> {
    let tag = *bytes.get(*pos)?;
    *pos += 1;
    if tag & RESERVED_BITS != 0 {
        return None;
    }
    let expected_pc = state.prev_pc.wrapping_add(INSTRUCTION_BYTES);
    let pc = if tag & SEQ_BIT != 0 {
        expected_pc
    } else {
        expected_pc.wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64)
    };
    let kind = match tag & 0b111 {
        OP_INT => Kind::IntAlu,
        OP_FP => Kind::FpAlu,
        OP_SIMD => Kind::Simd,
        OP_LOAD | OP_STORE => {
            let addr = state
                .prev_data
                .wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64);
            state.prev_data = addr;
            if tag & 0b111 == OP_LOAD {
                Kind::Load { addr }
            } else {
                Kind::Store { addr }
            }
        }
        op @ (OP_BRANCH_NOT_TAKEN | OP_BRANCH_TAKEN) => Kind::Branch {
            target: pc.wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64),
            taken: op == OP_BRANCH_TAKEN,
        },
        _ => return None,
    };
    state.prev_pc = pc;
    Some(Instruction {
        pc,
        kind,
        kernel: tag & KERNEL_BIT != 0,
    })
}

/// Streaming encoder: feeds instructions in, emits the packed file to any
/// [`Write`] sink in constant memory (one granule buffered at a time).
///
/// The declared instruction count is fixed up front and written into the
/// header; [`TraceWriter::finish`] fails if the stream was shorter or
/// longer, so a published file always matches its header.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    declared: u64,
    written: u64,
    granule: Vec<u8>,
    granule_count: u32,
    state: DeltaState,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a packed trace of exactly `instructions` instructions,
    /// writing the header immediately.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn new(mut sink: W, instructions: u64) -> std::io::Result<Self> {
        let mut header = [0u8; HEADER_BYTES];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&instructions.to_le_bytes());
        sink.write_all(&header)?;
        Ok(TraceWriter {
            sink,
            declared: instructions,
            written: 0,
            granule: Vec::with_capacity(GRANULE_INSTRUCTIONS * 4),
            granule_count: 0,
            state: DeltaState::default(),
        })
    }

    /// Appends one instruction.
    ///
    /// # Errors
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] when the declared
    /// instruction count is already reached, and propagates sink I/O
    /// errors from granule flushes.
    pub fn push(&mut self, inst: &Instruction) -> std::io::Result<()> {
        if self.written == self.declared {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "trace already holds its declared instruction count",
            ));
        }
        if self.granule_count as usize == GRANULE_INSTRUCTIONS {
            self.flush_granule()?;
        }
        encode_one(&mut self.granule, &mut self.state, inst);
        self.granule_count += 1;
        self.written += 1;
        Ok(())
    }

    /// Instructions pushed so far.
    pub fn instructions_written(&self) -> u64 {
        self.written
    }

    fn flush_granule(&mut self) -> std::io::Result<()> {
        if self.granule_count == 0 {
            return Ok(());
        }
        let mut header = [0u8; GRANULE_HEADER_BYTES];
        header[0..4].copy_from_slice(&self.granule_count.to_le_bytes());
        header[4..8].copy_from_slice(&(self.granule.len() as u32).to_le_bytes());
        header[8..16].copy_from_slice(&fnv1a_64(&self.granule).to_le_bytes());
        self.sink.write_all(&header)?;
        self.sink.write_all(&self.granule)?;
        self.granule.clear();
        self.granule_count = 0;
        self.state = DeltaState::default();
        Ok(())
    }

    /// Flushes the final granule and returns the sink.
    ///
    /// # Errors
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] when fewer
    /// instructions were pushed than declared, and propagates sink I/O
    /// errors.
    pub fn finish(mut self) -> std::io::Result<W> {
        if self.written != self.declared {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "trace declared {} instructions but {} were pushed",
                    self.declared, self.written
                ),
            ));
        }
        self.flush_granule()?;
        Ok(self.sink)
    }
}

/// A fully validated in-memory packed trace, ready for replay.
///
/// Construction verifies the header, the granule structure, every granule
/// checksum, and the total instruction count *up front*, so any
/// corruption — truncation, bit flips, version skew — surfaces as a
/// [`TraceError`] here and never mid-simulation. Validation deliberately
/// does **not** pre-decode the payload: the checksum already pins every
/// payload byte to what a [`TraceWriter`] produced, and the writer only
/// emits valid encodings, so decoding work happens exactly once, inside
/// [`TraceReader::iter`] — a plain infallible
/// `Iterator<Item = Instruction>` straight off the packed bytes (the
/// trace is never expanded to a `Vec<Instruction>`; memory stays at
/// packed size, a few bytes per instruction). A deliberately forged file
/// whose granules checksum correctly but do not decode panics during
/// replay rather than silently truncating the stream.
#[derive(Debug, Clone)]
pub struct TraceReader {
    bytes: Vec<u8>,
    instructions: u64,
}

impl TraceReader {
    /// Validates `bytes` as a complete packed trace.
    ///
    /// # Errors
    ///
    /// Returns the specific [`TraceError`] for a bad magic, version skew,
    /// truncation, checksum failure, or count mismatch.
    pub fn new(bytes: Vec<u8>) -> Result<Self, TraceError> {
        if bytes.len() < HEADER_BYTES {
            return Err(TraceError::Truncated);
        }
        if bytes[0..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let declared = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));

        let mut pos = HEADER_BYTES;
        let mut total = 0u64;
        let mut index = 0usize;
        while pos < bytes.len() {
            if bytes.len() - pos < GRANULE_HEADER_BYTES {
                return Err(TraceError::Truncated);
            }
            let count = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            let len =
                u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
            let checksum =
                u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8 bytes"));
            pos += GRANULE_HEADER_BYTES;
            if count == 0 || count as usize > GRANULE_INSTRUCTIONS {
                return Err(TraceError::CorruptGranule { index });
            }
            let end = pos.checked_add(len).ok_or(TraceError::Truncated)?;
            if end > bytes.len() {
                return Err(TraceError::Truncated);
            }
            let payload = &bytes[pos..end];
            if fnv1a_64(payload) != checksum {
                return Err(TraceError::CorruptGranule { index });
            }
            total += u64::from(count);
            pos = end;
            index += 1;
        }
        if total != declared {
            return Err(TraceError::CountMismatch {
                declared,
                found: total,
            });
        }
        Ok(TraceReader {
            bytes,
            instructions: declared,
        })
    }

    /// Reads and validates a packed trace file.
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`TraceError::Io`]; content problems as the
    /// specific validation error.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        TraceReader::new(std::fs::read(path)?)
    }

    /// Instructions in the trace.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Size of the packed representation in bytes (header included).
    pub fn packed_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// An infallible decoding iterator over the trace, from the start.
    pub fn iter(&self) -> Replay<'_> {
        Replay {
            bytes: &self.bytes,
            pos: HEADER_BYTES,
            granule_left: 0,
            remaining: self.instructions,
            state: DeltaState::default(),
        }
    }
}

impl<'a> IntoIterator for &'a TraceReader {
    type Item = Instruction;
    type IntoIter = Replay<'a>;
    fn into_iter(self) -> Replay<'a> {
        self.iter()
    }
}

/// Streaming decoder over a validated [`TraceReader`].
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    bytes: &'a [u8],
    pos: usize,
    granule_left: u32,
    remaining: u64,
    state: DeltaState,
}

impl Iterator for Replay<'_> {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        if self.remaining == 0 {
            return None;
        }
        if self.granule_left == 0 {
            let count = u32::from_le_bytes(
                self.bytes[self.pos..self.pos + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            self.pos += GRANULE_HEADER_BYTES;
            self.granule_left = count;
            self.state = DeltaState::default();
        }
        let inst = decode_one(self.bytes, &mut self.pos, &mut self.state)
            .expect("checksum-valid granule failed to decode (forged trace file)");
        self.granule_left -= 1;
        self.remaining -= 1;
        Some(inst)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(insts: &[Instruction]) -> Vec<u8> {
        let mut writer = TraceWriter::new(Vec::new(), insts.len() as u64).unwrap();
        for inst in insts {
            writer.push(inst).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let reader = TraceReader::new(bytes.clone()).unwrap();
        assert_eq!(reader.instructions(), insts.len() as u64);
        let decoded: Vec<Instruction> = reader.iter().collect();
        assert_eq!(decoded, insts);
        bytes
    }

    #[test]
    fn varint_round_trips_at_extremes() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips_at_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        round_trip(&[]);
    }

    #[test]
    fn adversarial_instructions_round_trip() {
        // Extreme pcs/addresses, every kind, kernel flags: the codec must
        // be exact for arbitrary instructions, not just generator output.
        let insts = vec![
            Instruction {
                pc: 0,
                kind: Kind::IntAlu,
                kernel: false,
            },
            Instruction {
                pc: u64::MAX,
                kind: Kind::Load { addr: 0 },
                kernel: true,
            },
            Instruction {
                pc: 4,
                kind: Kind::Store { addr: u64::MAX },
                kernel: false,
            },
            Instruction {
                pc: 8,
                kind: Kind::Branch {
                    target: u64::MAX / 2,
                    taken: true,
                },
                kernel: true,
            },
            Instruction {
                pc: 1,
                kind: Kind::Branch {
                    target: 0,
                    taken: false,
                },
                kernel: false,
            },
            Instruction {
                pc: 5,
                kind: Kind::FpAlu,
                kernel: false,
            },
            Instruction {
                pc: 9,
                kind: Kind::Simd,
                kernel: true,
            },
        ];
        round_trip(&insts);
    }

    #[test]
    fn granule_boundaries_round_trip() {
        for n in [
            GRANULE_INSTRUCTIONS - 1,
            GRANULE_INSTRUCTIONS,
            GRANULE_INSTRUCTIONS + 1,
            2 * GRANULE_INSTRUCTIONS,
        ] {
            let insts: Vec<Instruction> = (0..n)
                .map(|i| Instruction {
                    pc: 0x40_0000 + 4 * i as u64,
                    kind: if i % 5 == 0 {
                        Kind::Load {
                            addr: 0x1000_0000_0000 + 64 * i as u64,
                        }
                    } else {
                        Kind::IntAlu
                    },
                    kernel: false,
                })
                .collect();
            round_trip(&insts);
        }
    }

    #[test]
    fn sequential_stream_is_compact() {
        // A straight-line integer stream packs to 1 byte per instruction.
        let insts: Vec<Instruction> = (0..10_000u64)
            .map(|i| Instruction {
                pc: 0x40_0000 + 4 * i,
                kind: Kind::IntAlu,
                kernel: false,
            })
            .collect();
        let bytes = round_trip(&insts);
        // 1 tag byte each, plus granule headers and one pc varint per
        // granule (the delta state resets at each boundary).
        let payload = bytes.len() - HEADER_BYTES;
        assert!(
            payload < insts.len() + 3 * (GRANULE_HEADER_BYTES + 10),
            "payload {payload} bytes for {} instructions",
            insts.len()
        );
    }

    #[test]
    fn over_and_under_push_are_rejected() {
        let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
        let inst = Instruction {
            pc: 0,
            kind: Kind::IntAlu,
            kernel: false,
        };
        w.push(&inst).unwrap();
        assert!(w.push(&inst).is_err(), "push past declared count");

        let w = TraceWriter::new(Vec::new(), 2).unwrap();
        assert!(w.finish().is_err(), "finish before declared count");
    }

    #[test]
    fn validation_rejects_tampered_bytes() {
        let insts: Vec<Instruction> = (0..100u64)
            .map(|i| Instruction {
                pc: 4 * i,
                kind: Kind::IntAlu,
                kernel: false,
            })
            .collect();
        let good = round_trip(&insts);

        assert!(matches!(
            TraceReader::new(Vec::new()),
            Err(TraceError::Truncated)
        ));

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(TraceReader::new(bad), Err(TraceError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            TraceReader::new(bad),
            Err(TraceError::UnsupportedVersion {
                found: 99,
                expected: FORMAT_VERSION
            })
        ));

        let mut bad = good.clone();
        bad.truncate(good.len() - 1);
        assert!(matches!(TraceReader::new(bad), Err(TraceError::Truncated)));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            TraceReader::new(bad),
            Err(TraceError::CorruptGranule { index: 0 })
        ));

        let mut bad = good.clone();
        bad[12] = 7; // header claims 7 instructions, granules hold 100
        assert!(matches!(
            TraceReader::new(bad),
            Err(TraceError::CountMismatch {
                declared: 7,
                found: 100
            })
        ));
    }
}
