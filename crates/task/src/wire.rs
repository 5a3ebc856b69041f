//! Checksummed binary wire format for programs and task specs.
//!
//! This is the byte stream the offload protocol actually ships. The format
//! is versioned, little-endian, and protected by a CRC-32 so a corrupted
//! frame is rejected before verification even starts. The encoding is
//! self-contained — no serde — because the receiving node must be able to
//! bound decode work on untrusted bytes.

use crate::spec::{Priority, ResourceRequirements, TaskId, TaskSpec};
use crate::vm::{Instr, Program};
use airdnd_data::{DataQuery, DataType, QualityRequirement, SensorModality};
use airdnd_geo::{Aabb, Vec2};
use airdnd_sim::SimDuration;
use std::error::Error;
use std::fmt;

const PROGRAM_MAGIC: [u8; 4] = *b"ATVM";
const SPEC_MAGIC: [u8; 4] = *b"ATSK";
const VERSION: u8 = 1;
/// Upper bound on any length field, to stop hostile buffers from causing
/// huge allocations before the checksum is even checked.
const MAX_FIELD_LEN: u32 = 1 << 20;

/// Errors from decoding wire bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-field.
    Truncated,
    /// The magic bytes did not match.
    BadMagic([u8; 4]),
    /// Unknown format version.
    UnsupportedVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown enum tag.
    BadTag(u8),
    /// A length field exceeded sanity bounds.
    FieldTooLarge(u32),
    /// The name was not valid UTF-8.
    BadString,
    /// Checksum mismatch (corruption).
    BadChecksum {
        /// CRC stored in the buffer.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// Trailing bytes after the encoded value.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::FieldTooLarge(n) => write!(f, "field length {n} exceeds bounds"),
            WireError::BadString => write!(f, "invalid utf-8 in string field"),
            WireError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl Error for WireError {}

/// CRC-32 (IEEE 802.3, reflected). Bitwise — speed is irrelevant next to
/// radio airtime, simplicity is not.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("len 2"),
        ))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("len 4"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("len 8"),
        ))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn opcode(instr: Instr) -> u8 {
    use Instr::*;
    match instr {
        Push(_) => 0x01,
        Pop => 0x02,
        Dup => 0x03,
        Swap => 0x04,
        Over => 0x05,
        Add => 0x10,
        Sub => 0x11,
        Mul => 0x12,
        Div => 0x13,
        Rem => 0x14,
        Neg => 0x15,
        Abs => 0x16,
        Min => 0x17,
        Max => 0x18,
        And => 0x20,
        Or => 0x21,
        Xor => 0x22,
        Not => 0x23,
        Shl => 0x24,
        Shr => 0x25,
        Eq => 0x30,
        Ne => 0x31,
        Lt => 0x32,
        Le => 0x33,
        Gt => 0x34,
        Ge => 0x35,
        Jmp(_) => 0x40,
        Jz(_) => 0x41,
        Jnz(_) => 0x42,
        Load => 0x50,
        Store => 0x51,
        Input => 0x60,
        InputLen => 0x61,
        Output => 0x62,
        Halt => 0x70,
    }
}

fn encode_instr(out: &mut Vec<u8>, instr: Instr) {
    out.push(opcode(instr));
    match instr {
        Instr::Push(c) => out.extend_from_slice(&c.to_le_bytes()),
        Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) => out.extend_from_slice(&t.to_le_bytes()),
        _ => {}
    }
}

fn decode_instr(r: &mut Reader<'_>) -> Result<Instr, WireError> {
    use Instr::*;
    let op = r.u8()?;
    Ok(match op {
        0x01 => Push(r.i64()?),
        0x02 => Pop,
        0x03 => Dup,
        0x04 => Swap,
        0x05 => Over,
        0x10 => Add,
        0x11 => Sub,
        0x12 => Mul,
        0x13 => Div,
        0x14 => Rem,
        0x15 => Neg,
        0x16 => Abs,
        0x17 => Min,
        0x18 => Max,
        0x20 => And,
        0x21 => Or,
        0x22 => Xor,
        0x23 => Not,
        0x24 => Shl,
        0x25 => Shr,
        0x30 => Eq,
        0x31 => Ne,
        0x32 => Lt,
        0x33 => Le,
        0x34 => Gt,
        0x35 => Ge,
        0x40 => Jmp(r.u32()?),
        0x41 => Jz(r.u32()?),
        0x42 => Jnz(r.u32()?),
        0x50 => Load,
        0x51 => Store,
        0x60 => Input,
        0x61 => InputLen,
        0x62 => Output,
        0x70 => Halt,
        other => return Err(WireError::BadOpcode(other)),
    })
}

fn encode_program_body(out: &mut Vec<u8>, program: &Program) {
    out.extend_from_slice(&program.memory_words().to_le_bytes());
    out.extend_from_slice(&(program.code().len() as u32).to_le_bytes());
    for &instr in program.code() {
        encode_instr(out, instr);
    }
}

fn decode_program_body(r: &mut Reader<'_>) -> Result<Program, WireError> {
    let memory_words = r.u32()?;
    let code_len = r.u32()?;
    if code_len > MAX_FIELD_LEN {
        return Err(WireError::FieldTooLarge(code_len));
    }
    let mut code = Vec::with_capacity(code_len as usize);
    for _ in 0..code_len {
        code.push(decode_instr(r)?);
    }
    Ok(Program::new(code, memory_words))
}

/// Encodes a program as a standalone checksummed message.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(program.len() * 9 + 16);
    out.extend_from_slice(&PROGRAM_MAGIC);
    out.push(VERSION);
    encode_program_body(&mut out, program);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a standalone program message.
///
/// # Errors
///
/// Any [`WireError`]; the checksum is verified before instruction parsing
/// results are returned.
pub fn decode_program(bytes: &[u8]) -> Result<Program, WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("len 4"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(WireError::BadChecksum { stored, computed });
    }
    let mut r = Reader::new(payload);
    let magic: [u8; 4] = r.bytes(4)?.try_into().expect("len 4");
    if magic != PROGRAM_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let program = decode_program_body(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(program)
}

fn encode_data_type(out: &mut Vec<u8>, dt: DataType) {
    match dt {
        DataType::RawFrame(m) => {
            out.push(0);
            out.push(match m {
                SensorModality::Camera => 0,
                SensorModality::Lidar => 1,
                SensorModality::Radar => 2,
                SensorModality::Gnss => 3,
            });
        }
        DataType::DetectionList => out.extend_from_slice(&[1, 0]),
        DataType::OccupancyGrid => out.extend_from_slice(&[2, 0]),
        DataType::TrackList => out.extend_from_slice(&[3, 0]),
        DataType::FusedPerception => out.extend_from_slice(&[4, 0]),
    }
}

fn decode_data_type(r: &mut Reader<'_>) -> Result<DataType, WireError> {
    let tag = r.u8()?;
    let sub = r.u8()?;
    Ok(match tag {
        0 => DataType::RawFrame(match sub {
            0 => SensorModality::Camera,
            1 => SensorModality::Lidar,
            2 => SensorModality::Radar,
            3 => SensorModality::Gnss,
            other => return Err(WireError::BadTag(other)),
        }),
        1 => DataType::DetectionList,
        2 => DataType::OccupancyGrid,
        3 => DataType::TrackList,
        4 => DataType::FusedPerception,
        other => return Err(WireError::BadTag(other)),
    })
}

fn encode_query(out: &mut Vec<u8>, q: &DataQuery) {
    encode_data_type(out, q.data_type);
    let req = &q.requirement;
    out.extend_from_slice(&req.max_age.as_nanos().to_le_bytes());
    out.extend_from_slice(&req.min_confidence.to_bits().to_le_bytes());
    out.extend_from_slice(&req.min_resolution.to_bits().to_le_bytes());
    match &req.required_region {
        Some(region) => {
            out.push(1);
            for v in [
                region.min().x,
                region.min().y,
                region.max().x,
                region.max().y,
            ] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        None => out.push(0),
    }
    out.extend_from_slice(&req.min_coverage_fraction.to_bits().to_le_bytes());
    out.extend_from_slice(&req.max_noise_sigma.to_bits().to_le_bytes());
}

fn decode_query(r: &mut Reader<'_>) -> Result<DataQuery, WireError> {
    let data_type = decode_data_type(r)?;
    let max_age = SimDuration::from_nanos(r.u64()?);
    let min_confidence = r.f64()?;
    let min_resolution = r.f64()?;
    let required_region = match r.u8()? {
        0 => None,
        1 => {
            let (ax, ay, bx, by) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
            Some(Aabb::new(Vec2::new(ax, ay), Vec2::new(bx, by)))
        }
        other => return Err(WireError::BadTag(other)),
    };
    let min_coverage_fraction = r.f64()?;
    let max_noise_sigma = r.f64()?;
    Ok(DataQuery {
        data_type,
        requirement: QualityRequirement {
            max_age,
            min_confidence,
            min_resolution,
            required_region,
            min_coverage_fraction,
            max_noise_sigma,
        },
    })
}

/// Encodes a full task spec as a checksummed message.
pub fn encode_spec(spec: &TaskSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(spec.wire_size_bytes() as usize + 32);
    out.extend_from_slice(&SPEC_MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&spec.id.raw().to_le_bytes());
    out.extend_from_slice(&(spec.name.len() as u32).to_le_bytes());
    out.extend_from_slice(spec.name.as_bytes());
    encode_program_body(&mut out, &spec.program);
    out.extend_from_slice(&(spec.inputs.len() as u16).to_le_bytes());
    for q in &spec.inputs {
        encode_query(&mut out, q);
    }
    let req = &spec.requirements;
    for v in [
        req.gas,
        req.memory_bytes,
        req.input_bytes,
        req.output_bytes,
        req.deadline.as_nanos(),
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(match spec.priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
        Priority::Critical => 3,
    });
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a task-spec message.
///
/// # Errors
///
/// Any [`WireError`].
pub fn decode_spec(bytes: &[u8]) -> Result<TaskSpec, WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("len 4"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(WireError::BadChecksum { stored, computed });
    }
    let mut r = Reader::new(payload);
    let magic: [u8; 4] = r.bytes(4)?.try_into().expect("len 4");
    if magic != SPEC_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let id = TaskId::new(r.u64()?);
    let name_len = r.u32()?;
    if name_len > MAX_FIELD_LEN {
        return Err(WireError::FieldTooLarge(name_len));
    }
    let name = std::str::from_utf8(r.bytes(name_len as usize)?)
        .map_err(|_| WireError::BadString)?
        .to_owned();
    let program = decode_program_body(&mut r)?;
    let query_count = r.u16()?;
    let mut inputs = Vec::with_capacity(query_count as usize);
    for _ in 0..query_count {
        inputs.push(decode_query(&mut r)?);
    }
    let requirements = ResourceRequirements {
        gas: r.u64()?,
        memory_bytes: r.u64()?,
        input_bytes: r.u64()?,
        output_bytes: r.u64()?,
        deadline: SimDuration::from_nanos(r.u64()?),
    };
    let priority = match r.u8()? {
        0 => Priority::Low,
        1 => Priority::Normal,
        2 => Priority::High,
        3 => Priority::Critical,
        other => return Err(WireError::BadTag(other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(TaskSpec {
        id,
        name,
        program,
        inputs,
        requirements,
        priority,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::library;
    use proptest::prelude::*;

    fn sample_spec() -> TaskSpec {
        TaskSpec::new(TaskId::new(42), "fuse", library::grid_fuse(8).into_inner())
            .with_input(DataQuery::of_type(DataType::OccupancyGrid))
            .with_priority(Priority::High)
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn program_round_trip() {
        let p = library::matmul(3).into_inner();
        let bytes = encode_program(&p);
        let back = decode_program(&bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn spec_round_trip() {
        let spec = sample_spec();
        let bytes = encode_spec(&spec);
        let back = decode_spec(&bytes).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode_program(&library::sum_inputs().into_inner());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode_program(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_spec(&sample_spec());
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_spec(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadChecksum { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let spec_bytes = encode_spec(&sample_spec());
        // A spec message is not a program message.
        assert!(matches!(
            decode_program(&spec_bytes),
            Err(WireError::BadMagic(m)) if m == SPEC_MAGIC
        ));
    }

    #[test]
    fn version_gate() {
        let mut bytes = encode_program(&library::sum_inputs().into_inner());
        bytes[4] = 99; // version byte
                       // Fix up the CRC so only the version check fires.
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_program(&bytes),
            Err(WireError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn infinity_and_nan_free_defaults_survive() {
        // Default requirement has max_noise_sigma = +inf; must round-trip.
        let spec = TaskSpec::new(TaskId::new(1), "x", library::sum_inputs().into_inner())
            .with_input(DataQuery::of_type(DataType::DetectionList));
        let back = decode_spec(&encode_spec(&spec)).unwrap();
        assert!(back.inputs[0].requirement.max_noise_sigma.is_infinite());
    }

    /// Any instruction, jump targets in `0..1000`.
    pub(crate) fn arb_instr() -> impl Strategy<Value = Instr> {
        use Instr::*;
        prop_oneof![
            any::<i64>().prop_map(Push),
            Just(Pop),
            Just(Dup),
            Just(Swap),
            Just(Over),
            Just(Add),
            Just(Sub),
            Just(Mul),
            Just(Div),
            Just(Rem),
            Just(Neg),
            Just(Abs),
            Just(Min),
            Just(Max),
            Just(And),
            Just(Or),
            Just(Xor),
            Just(Not),
            Just(Shl),
            Just(Shr),
            Just(Eq),
            Just(Ne),
            Just(Lt),
            Just(Le),
            Just(Gt),
            Just(Ge),
            (0u32..1000).prop_map(Jmp),
            (0u32..1000).prop_map(Jz),
            (0u32..1000).prop_map(Jnz),
            Just(Load),
            Just(Store),
            Just(Input),
            Just(InputLen),
            Just(Output),
            Just(Halt),
        ]
    }

    proptest! {
        #[test]
        fn any_program_round_trips(code in proptest::collection::vec(arb_instr(), 0..200), mem in 0u32..1024) {
            let p = Program::new(code, mem);
            let bytes = encode_program(&p);
            prop_assert_eq!(decode_program(&bytes).unwrap(), p);
        }

        #[test]
        fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_program(&bytes);
            let _ = decode_spec(&bytes);
        }

        #[test]
        fn single_bit_flips_are_caught(
            code in proptest::collection::vec(arb_instr(), 1..50),
            byte_index in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let p = Program::new(code, 4);
            let mut bytes = encode_program(&p);
            let idx = byte_index.index(bytes.len());
            bytes[idx] ^= 1 << bit;
            // Either an error, or (for flips inside the CRC itself that
            // collide — impossible for single-bit flips with CRC-32) a
            // different program. Never a silent identical success.
            if let Ok(decoded) = decode_program(&bytes) {
                prop_assert_ne!(decoded, p);
            }
        }
    }
}
