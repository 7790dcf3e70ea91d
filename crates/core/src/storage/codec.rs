//! Binary encoding of the durable state: a small, hand-rolled,
//! little-endian codec (the environment vendors no serde) plus the
//! CRC-32 checksum the write-ahead log, the snapshots and the wire
//! frame their payloads with.
//!
//! Decoding is **paranoid by construction**: every read is
//! bounds-checked and every structural inconsistency (bad tag, column
//! length mismatch, non-UTF-8 text) surfaces as
//! [`CoreError::Corrupt`] — never a panic, never a silent
//! misinterpretation. The encoder and decoder are exact inverses; the
//! roundtrip tests below pin that for every value shape the engine can
//! produce, including mixed-type columns and NULLs.

use paradise_engine::{Column, ColumnData, DataType, Frame, Schema, Value};
use paradise_policy::{parse_policy, policy_to_xml, ModulePolicy, Policy};
use paradise_sql::parse_query;

use crate::error::{CoreError, CoreResult};
use crate::runtime::{Command, QueryHandle};

// ------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slicing-by-16
// ------------------------------------------------------------------

/// 256-entry lookup table for the reflected IEEE polynomial
/// (0xEDB88320), built at compile time: the CRC of one byte.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Sixteen lookup tables, built at compile time from [`CRC_TABLE`]:
/// entry `i` of table `k` is the CRC register after byte `i` and then
/// `k` zero bytes, so one step folds 16 bytes by 16 independent lookups.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [CRC_TABLE; 16];
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every WAL record,
/// snapshot payload and wire frame against torn writes and bit rot.
/// Slicing-by-16: 16 bytes per step, the remainder one byte at a time;
/// the result is the bytewise table CRC's, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        // the register folds into the block's first four bytes
        let r = crc.to_le_bytes();
        crc = t[15][(c[0] ^ r[0]) as usize]
            ^ t[14][(c[1] ^ r[1]) as usize]
            ^ t[13][(c[2] ^ r[2]) as usize]
            ^ t[12][(c[3] ^ r[3]) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ------------------------------------------------------------------
// Primitive writer / reader
// ------------------------------------------------------------------

/// Append-only byte sink the record encoders write into.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an f64 by bit pattern (exact, NaN-preserving).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

impl From<Vec<u8>> for Enc {
    /// An encoder that writes after `buf`'s bytes: a record encodes
    /// behind a header reserved in the same buffer, which is patched in
    /// place once the record's length and CRC are known.
    fn from(buf: Vec<u8>) -> Self {
        Enc { buf }
    }
}

/// Bounds-checked reader over an encoded byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

/// Shorthand for the corruption error every failed decode returns.
fn corrupt(what: &str) -> CoreError {
    CoreError::Corrupt(what.to_string())
}

impl<'a> Dec<'a> {
    /// Reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, at: 0 }
    }

    /// Everything consumed? Trailing garbage after a payload is
    /// corruption, so record decoders check this.
    pub fn done(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// Bytes left to read — decoders bound declared element counts by
    /// this before pre-allocating, so a corrupt length prefix yields
    /// [`CoreError::Corrupt`] instead of a multi-gigabyte allocation.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> CoreResult<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or_else(|| corrupt("length overflow"))?;
        if end > self.bytes.len() {
            return Err(corrupt("truncated payload"));
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> CoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> CoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("slice is 4 bytes")))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> CoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("slice is 8 bytes")))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> CoreResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("slice is 8 bytes")))
    }

    /// Read an f64 by bit pattern.
    pub fn f64(&mut self) -> CoreResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CoreResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }
}

// ------------------------------------------------------------------
// Value / schema / frame codecs
// ------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;

/// Encode one runtime value (tag + payload).
pub fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(VAL_NULL),
        Value::Bool(b) => {
            e.u8(VAL_BOOL);
            e.u8(u8::from(*b));
        }
        Value::Int(x) => {
            e.u8(VAL_INT);
            e.i64(*x);
        }
        Value::Float(x) => {
            e.u8(VAL_FLOAT);
            e.f64(*x);
        }
        Value::Str(s) => {
            e.u8(VAL_STR);
            e.str(s);
        }
    }
}

/// Decode one runtime value.
pub fn dec_value(d: &mut Dec<'_>) -> CoreResult<Value> {
    Ok(match d.u8()? {
        VAL_NULL => Value::Null,
        VAL_BOOL => Value::Bool(d.u8()? != 0),
        VAL_INT => Value::Int(d.i64()?),
        VAL_FLOAT => Value::Float(d.f64()?),
        VAL_STR => Value::Str(d.str()?),
        tag => return Err(corrupt(&format!("unknown value tag {tag}"))),
    })
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Integer => 0,
        DataType::Float => 1,
        DataType::Boolean => 2,
        DataType::Text => 3,
    }
}

fn dtype_from(tag: u8) -> CoreResult<DataType> {
    Ok(match tag {
        0 => DataType::Integer,
        1 => DataType::Float,
        2 => DataType::Boolean,
        3 => DataType::Text,
        _ => return Err(corrupt(&format!("unknown data-type tag {tag}"))),
    })
}

/// Encode a schema: column count, then (name, optional qualifier,
/// declared type) per column.
pub fn enc_schema(e: &mut Enc, schema: &Schema) {
    e.u32(schema.len() as u32);
    for col in schema.columns() {
        e.str(&col.name);
        match &col.source {
            Some(src) => {
                e.u8(1);
                e.str(src);
            }
            None => e.u8(0),
        }
        e.u8(dtype_tag(col.data_type));
    }
}

/// Decode a schema.
pub fn dec_schema(d: &mut Dec<'_>) -> CoreResult<Schema> {
    let n = d.u32()? as usize;
    let mut columns = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        let source = match d.u8()? {
            0 => None,
            1 => Some(d.str()?),
            tag => return Err(corrupt(&format!("bad qualifier tag {tag}"))),
        };
        let data_type = dtype_from(d.u8()?)?;
        columns.push(match source {
            Some(src) => Column::qualified(src, name, data_type),
            None => Column::new(name, data_type),
        });
    }
    Ok(Schema::new(columns))
}

// Column buffer encodings. The dense typed buffers are written as a
// presence byte per cell plus the raw payload (the dominant ingest
// shapes — int/float sensor streams — thus cost 9 bytes/cell and no
// Value materialisation, either way: the decoder reads them straight
// into a typed buffer); a mixed-type column falls back to tagged
// values, which is exact for any mix.
const COL_INT: u8 = 0;
const COL_FLOAT: u8 = 1;
const COL_BOOL: u8 = 2;
const COL_STR: u8 = 3;
const COL_MIXED: u8 = 4;

fn enc_column(e: &mut Enc, col: &ColumnData) {
    // every tag writes a cell's `Value::size_bytes` plus at most one
    // byte (presence or value tag), so this one reserve holds the column
    e.buf.reserve(1 + col.bytes() + col.len());
    if let Some(cells) = col.int_slice() {
        e.u8(COL_INT);
        enc_cells(e, cells, |x| x.to_le_bytes());
    } else if let Some(cells) = col.float_slice() {
        e.u8(COL_FLOAT);
        enc_cells(e, cells, |x| x.to_bits().to_le_bytes());
    } else if let Some(cells) = col.bool_slice() {
        e.u8(COL_BOOL);
        enc_cells(e, cells, |x| [u8::from(x)]);
    } else if let Some(cells) = col.str_slice() {
        e.u8(COL_STR);
        for c in cells {
            match c {
                Some(s) => {
                    e.u8(1);
                    e.str(s);
                }
                None => e.u8(0),
            }
        }
    } else {
        e.u8(COL_MIXED);
        for v in col.iter_values() {
            enc_value(e, &v);
        }
    }
}

/// Write fixed-width cells: a presence byte each, then `put`'s `W`
/// payload bytes for a present one, into room `enc_column` reserved.
fn enc_cells<T: Copy, const W: usize>(
    e: &mut Enc,
    cells: &[Option<T>],
    put: impl Fn(T) -> [u8; W],
) {
    for c in cells {
        if let Some(x) = *c {
            e.buf.push(1);
            e.buf.extend_from_slice(&put(x));
        } else {
            e.buf.push(0);
        }
    }
}

fn dec_column(d: &mut Dec<'_>, rows: usize, declared: DataType) -> CoreResult<ColumnData> {
    Ok(match d.u8()? {
        COL_INT => ColumnData::from_ints(dec_fixed(d, rows, i64::from_le_bytes)?),
        COL_FLOAT => {
            ColumnData::from_floats(dec_fixed(d, rows, |x| f64::from_bits(u64::from_le_bytes(x)))?)
        }
        COL_BOOL => ColumnData::from_bools(dec_fixed(d, rows, |[x]| x != 0)?),
        COL_STR => ColumnData::from_strs(dec_texts(d, rows)?),
        COL_MIXED => {
            let mut col = ColumnData::with_capacity(declared, rows);
            for _ in 0..rows {
                col.push(dec_value(d)?);
            }
            col
        }
        tag => return Err(corrupt(&format!("unknown column tag {tag}"))),
    })
}

/// `rows` fixed-width cells: a presence byte each, then `W` payload
/// bytes `from` reads for a present one, straight into the column's
/// buffer.
fn dec_fixed<T, const W: usize>(
    d: &mut Dec<'_>,
    rows: usize,
    from: impl Fn([u8; W]) -> T,
) -> CoreResult<Vec<Option<T>>> {
    let truncated = || corrupt("truncated payload");
    let mut cells = Vec::with_capacity(rows);
    let mut rest = &d.bytes[d.at..];
    for _ in 0..rows {
        let (&presence, tail) = rest.split_first().ok_or_else(truncated)?;
        rest = tail;
        cells.push(match presence {
            0 => None,
            1 => {
                let (x, tail) = rest.split_first_chunk::<W>().ok_or_else(truncated)?;
                rest = tail;
                Some(from(*x))
            }
            p => return Err(corrupt(&format!("bad presence byte {p}"))),
        });
    }
    d.at = d.bytes.len() - rest.len();
    Ok(cells)
}

/// `rows` text cells: a presence byte each, then a length-prefixed
/// string for a present one, straight into the column's buffer.
fn dec_texts(d: &mut Dec<'_>, rows: usize) -> CoreResult<Vec<Option<String>>> {
    let mut cells = Vec::with_capacity(rows);
    for _ in 0..rows {
        cells.push(match d.u8()? {
            0 => None,
            1 => Some(d.str()?),
            p => return Err(corrupt(&format!("bad presence byte {p}"))),
        });
    }
    Ok(cells)
}

/// Encode a whole frame: schema, row count, then each column buffer.
pub fn enc_frame(e: &mut Enc, frame: &Frame) {
    enc_schema(e, &frame.schema);
    e.u32(frame.len() as u32);
    for i in 0..frame.schema.len() {
        enc_column(e, frame.column(i));
    }
}

/// Decode a frame; every structural mismatch (column count, cell
/// count) is [`CoreError::Corrupt`].
pub fn dec_frame(d: &mut Dec<'_>) -> CoreResult<Frame> {
    let schema = dec_schema(d)?;
    let rows = d.u32()? as usize;
    // defensive allocation bound: every encoded cell costs at least one
    // byte (presence or value tag), so a row count the remaining
    // payload cannot possibly hold is a corrupt length prefix — reject
    // it before `with_capacity` turns it into a huge allocation. A
    // zero-column frame has no cells to bound with, so its row count is
    // capped outright (it only carries cardinality).
    const MAX_ZERO_COLUMN_ROWS: usize = 1 << 24;
    if schema.is_empty() {
        if rows > MAX_ZERO_COLUMN_ROWS {
            return Err(corrupt("implausible zero-column row count"));
        }
    } else if rows.checked_mul(schema.len()).is_none_or(|cells| cells > d.remaining()) {
        return Err(corrupt("frame row count exceeds payload size"));
    }
    let mut columns = Vec::with_capacity(schema.len());
    for col in schema.columns() {
        let c = dec_column(d, rows, col.data_type)?;
        if c.len() != rows {
            return Err(corrupt("column length mismatch"));
        }
        columns.push(c);
    }
    if schema.is_empty() {
        // from_columns cannot carry a row count
        return Ok(Frame::without_columns(rows));
    }
    Frame::from_columns(schema, columns).map_err(CoreError::from)
}

// ------------------------------------------------------------------
// Commands: each mutation's layout, once, for the wire, the log and the
// snapshot. A query is its SQL and a policy its XML; `dec_command`
// parses them, while the log and the snapshot keep the text.
// ------------------------------------------------------------------

// the log tags its records of the same mutations alike
pub(crate) const TAG_INSTALL: u8 = 1;
pub(crate) const TAG_INGEST: u8 = 2;
pub(crate) const TAG_REGISTER: u8 = 4;
pub(crate) const TAG_REMOVE: u8 = 5;
pub(crate) const TAG_SET_POLICY: u8 = 6;

/// The tag [`enc_command`]'s caller writes before `cmd`'s body.
pub fn command_tag(cmd: &Command) -> u8 {
    match cmd {
        Command::InstallSource { .. } => TAG_INSTALL,
        Command::Ingest { .. } => TAG_INGEST,
        Command::Register { .. } => TAG_REGISTER,
        Command::RemoveQuery { .. } => TAG_REMOVE,
        Command::SetPolicy { .. } => TAG_SET_POLICY,
    }
}

/// Encode `cmd`'s body (its tag is the caller's, see [`command_tag`]).
pub fn enc_command(e: &mut Enc, cmd: &Command) {
    match cmd {
        Command::InstallSource { node, table, frame } => {
            e.str(node);
            e.str(table);
            enc_frame(e, frame);
        }
        Command::Ingest { node, table, frame, origin } => {
            e.str(node);
            e.str(table);
            enc_origin(e, *origin);
            enc_frame(e, frame);
        }
        Command::Register { module, query, origin } => {
            enc_text_body(e, module, &query.to_string(), *origin);
        }
        // a handle id is its slot then its generation, both u32 LE
        Command::RemoveQuery { handle } => e.u64(handle.id()),
        Command::SetPolicy { module, policy, origin } => {
            enc_text_body(e, module, &policy_xml(policy), *origin);
        }
    }
}

/// Decode the body of a command tagged `tag`, parsing its query or
/// policy. Unparseable SQL or XML is the parser's typed error.
pub fn dec_command(d: &mut Dec<'_>, tag: u8) -> CoreResult<Command> {
    Ok(match tag {
        TAG_INSTALL => {
            Command::InstallSource { node: d.str()?, table: d.str()?, frame: dec_frame(d)? }
        }
        TAG_INGEST => Command::Ingest {
            node: d.str()?,
            table: d.str()?,
            origin: (d.u64()?, d.u64()?),
            frame: dec_frame(d)?,
        },
        TAG_REGISTER => {
            let (module, sql, origin) = dec_text_body(d)?;
            Command::Register { query: Box::new(parse_query(&sql)?), module, origin }
        }
        TAG_REMOVE => Command::RemoveQuery { handle: QueryHandle::from_id(d.u64()?) },
        TAG_SET_POLICY => {
            let (module, xml, origin) = dec_text_body(d)?;
            Command::SetPolicy { policy: module_policy(&xml, &module)?, module, origin }
        }
        tag => return Err(corrupt(&format!("unknown command tag {tag}"))),
    })
}

/// Encode an idempotency origin `(session, seq)`.
pub(crate) fn enc_origin(e: &mut Enc, (session, seq): (u64, u64)) {
    e.u64(session);
    e.u64(seq);
}

/// Encode the body of a `Register` (`text` is the SQL) or a `SetPolicy`
/// (`text` is the XML): module, text, origin.
pub(crate) fn enc_text_body(e: &mut Enc, module: &str, text: &str, origin: (u64, u64)) {
    e.str(module);
    e.str(text);
    enc_origin(e, origin);
}

/// Decode a `Register` or `SetPolicy` body as `(module, text, origin)`.
pub(crate) fn dec_text_body(d: &mut Dec<'_>) -> CoreResult<(String, String, (u64, u64))> {
    Ok((d.str()?, d.str()?, (d.u64()?, d.u64()?)))
}

/// `policy` as the XML a `SetPolicy` body and a snapshot carry.
pub(crate) fn policy_xml(policy: &ModulePolicy) -> String {
    policy_to_xml(&Policy::single(policy.clone()))
}

/// The module policy of recorded policy XML (its first module).
pub(crate) fn module_policy(xml: &str, module: &str) -> CoreResult<ModulePolicy> {
    let policy = parse_policy(xml)?;
    policy.modules.into_iter().next().ok_or_else(|| {
        CoreError::Corrupt(format!("recorded policy for {module:?} has no module"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_frame(frame: &Frame) -> Frame {
        let mut e = Enc::new();
        enc_frame(&mut e, frame);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_frame(&mut d).expect("decodes");
        assert!(d.done(), "frame decode must consume its payload exactly");
        back
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table CRC `crc32` replaced, kept as its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `n` bytes of a seeded xorshift stream.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        // every length across the 16-byte steps, at every alignment
        let buf = seeded_bytes(300 + 16);
        for start in 0..16 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start}, length {len}");
            }
        }
        let big = seeded_bytes(4 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(i64::MIN);
        e.f64(f64::NAN);
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), i64::MIN);
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.str().unwrap(), "héllo");
        assert!(d.done());
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(d.u32(), Err(CoreError::Corrupt(_))));
        let mut d = Dec::new(&[255, 255, 255, 255, b'x']);
        assert!(matches!(d.str(), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn values_roundtrip_exactly() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::Str(String::new()),
            Value::Str("snow ☃".into()),
        ] {
            let mut e = Enc::new();
            enc_value(&mut e, &v);
            let bytes = e.into_bytes();
            let back = dec_value(&mut Dec::new(&bytes)).unwrap();
            // compare bit-exactly for floats (PartialEq folds -0.0 == 0.0)
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, back),
            }
        }
        assert!(matches!(dec_value(&mut Dec::new(&[9])), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn typed_frames_roundtrip() {
        let schema = Schema::new(vec![
            Column::new("i", DataType::Integer),
            Column::qualified("s", "f", DataType::Float),
            Column::new("b", DataType::Boolean),
            Column::new("t", DataType::Text),
        ]);
        let frame = Frame::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Float(0.5), Value::Bool(true), Value::Str("a".into())],
                vec![Value::Null, Value::Null, Value::Null, Value::Null],
                vec![Value::Int(-7), Value::Float(-1.25), Value::Bool(false), Value::Str(String::new())],
            ],
        )
        .unwrap();
        let back = roundtrip_frame(&frame);
        assert_eq!(back, frame);
        assert_eq!(back.schema, frame.schema);
    }

    #[test]
    fn mixed_and_empty_frames_roundtrip() {
        // a column mixing runtime types exercises the exact fallback
        let schema = Schema::from_pairs(&[("m", DataType::Integer)]);
        let mixed = Frame::new(
            schema.clone(),
            vec![vec![Value::Int(3)], vec![Value::Str("x".into())], vec![Value::Float(2.5)]],
        )
        .unwrap();
        let back = roundtrip_frame(&mixed);
        assert_eq!(back.to_rows(), mixed.to_rows());

        let empty = Frame::empty(schema);
        assert_eq!(roundtrip_frame(&empty), empty);

        // zero-column frames keep their cardinality
        let zero = Frame::new(Schema::default(), vec![vec![], vec![]]).unwrap();
        assert_eq!(roundtrip_frame(&zero).len(), 2);
    }

    /// One column of each tag, NULLs first, in the middle and last.
    fn columns_of_every_tag() -> Vec<(DataType, Vec<Value>)> {
        let with_nulls = |a: Value, b: Value| vec![Value::Null, a, Value::Null, b, Value::Null];
        vec![
            (DataType::Integer, with_nulls(Value::Int(i64::MIN), Value::Int(7))),
            (DataType::Float, with_nulls(Value::Float(f64::NAN), Value::Float(-0.0))),
            (DataType::Boolean, with_nulls(Value::Bool(true), Value::Bool(false))),
            (DataType::Text, with_nulls(Value::Str("☃".into()), Value::Str(String::new()))),
            (DataType::Integer, with_nulls(Value::Int(3), Value::Str("x".into()))),
        ]
    }

    #[test]
    fn typed_columns_decode_as_from_values_builds_them() {
        for (data_type, values) in columns_of_every_tag() {
            let schema = Schema::from_pairs(&[("c", data_type)]);
            let column = ColumnData::from_values(values.clone());
            let frame = Frame::from_columns(schema, vec![column]).unwrap();
            let back = roundtrip_frame(&frame);
            assert_eq!(back, frame, "{values:?}");
            assert_eq!(back.size_bytes(), frame.size_bytes(), "{values:?}");
            // the cells' bit patterns: equality lets NaN and -0.0 pass
            let bits = |f: &Frame| -> Vec<Option<u64>> {
                f.column(0).iter_values().map(|v| v.as_f64().map(f64::to_bits)).collect()
            };
            assert_eq!(bits(&back), bits(&frame), "{values:?}");
        }
    }

    #[test]
    fn every_truncation_and_bad_presence_byte_of_a_typed_column_is_corrupt() {
        for (data_type, values) in columns_of_every_tag().into_iter().take(4) {
            let frame = Frame::from_columns(
                Schema::from_pairs(&[("c", data_type)]),
                vec![ColumnData::from_values(values.clone())],
            )
            .unwrap();
            let mut e = Enc::new();
            enc_frame(&mut e, &frame);
            let bytes = e.into_bytes();
            for n in 0..bytes.len() {
                let got = dec_frame(&mut Dec::new(&bytes[..n]));
                assert!(matches!(got, Err(CoreError::Corrupt(_))), "{data_type:?}, {n} bytes");
            }
            // the cells start after the schema, the row count and the
            // column tag; each is its presence byte, then its payload
            let mut schema = Enc::new();
            enc_schema(&mut schema, &frame.schema);
            let mut at = schema.into_bytes().len() + 4 + 1;
            for v in &values {
                assert_eq!(bytes[at], u8::from(!v.is_null()), "{data_type:?}, byte {at}");
                for p in 2..=u8::MAX {
                    let mut bad = bytes.clone();
                    bad[at] = p;
                    let got = dec_frame(&mut Dec::new(&bad));
                    let what = format!("{data_type:?}, presence {p} at {at}");
                    assert!(matches!(got, Err(CoreError::Corrupt(_))), "{what}");
                }
                at += 1 + if v.is_null() { 0 } else { v.size_bytes() };
            }
            assert_eq!(at, bytes.len());
        }
    }

    #[test]
    fn corrupt_row_count_is_rejected_before_allocating() {
        // one int column, but a row count claiming ~4 billion rows:
        // the payload can't hold that many cells, so decode must
        // return Corrupt without attempting the allocation
        let mut e = Enc::new();
        enc_schema(&mut e, &Schema::from_pairs(&[("x", DataType::Integer)]));
        e.u32(u32::MAX);
        e.u8(COL_INT);
        let bytes = e.into_bytes();
        assert!(matches!(dec_frame(&mut Dec::new(&bytes)), Err(CoreError::Corrupt(_))));

        // zero-column frames have no cells to bound with; implausible
        // cardinality is rejected outright
        let mut e = Enc::new();
        enc_schema(&mut e, &Schema::default());
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        assert!(matches!(dec_frame(&mut Dec::new(&bytes)), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn frame_decode_rejects_garbage() {
        let mut e = Enc::new();
        enc_frame(&mut e, &Frame::empty(Schema::from_pairs(&[("x", DataType::Integer)])));
        let mut bytes = e.into_bytes();
        bytes[0] = 0xFF; // explode the column count
        assert!(matches!(dec_frame(&mut Dec::new(&bytes)), Err(CoreError::Corrupt(_))));
    }
}
