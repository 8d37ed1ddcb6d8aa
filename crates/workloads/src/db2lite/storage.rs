//! Schemas, the fixed-width row codec, page layout and table metadata.

/// Page size of the storage layer (matches the kernel buffer size).
pub const PAGE_SIZE: u32 = 4096;

/// A table identifier (dense, assigned at creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

/// Column types (fixed width, so row offsets are static — the layout
/// style row stores of the era used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 32-bit unsigned.
    U32,
    /// 64-bit unsigned.
    U64,
    /// Fixed-width string (space padded).
    Str(u16),
}

impl ColType {
    /// Width in bytes.
    pub fn width(self) -> u32 {
        match self {
            ColType::U32 => 4,
            ColType::U64 => 8,
            ColType::Str(n) => n as u32,
        }
    }
}

/// A column value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 32-bit unsigned.
    U32(u32),
    /// 64-bit unsigned.
    U64(u64),
    /// String (truncated/padded to the column width).
    Str(String),
}

impl Value {
    /// The u32 inside, panicking on type confusion (schema bugs should be
    /// loud).
    pub fn as_u32(&self) -> u32 {
        match self {
            Value::U32(v) => *v,
            other => panic!("expected U32, got {other:?}"),
        }
    }

    /// The u64 inside.
    pub fn as_u64(&self) -> u64 {
        match self {
            Value::U64(v) => *v,
            other => panic!("expected U64, got {other:?}"),
        }
    }

    /// The string inside (trailing pad stripped).
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Column types in order.
    pub cols: Vec<ColType>,
}

impl Schema {
    /// Builds a schema.
    pub fn new(cols: Vec<ColType>) -> Self {
        assert!(!cols.is_empty());
        Self { cols }
    }

    /// Row width in bytes.
    pub fn row_len(&self) -> u32 {
        self.cols.iter().map(|c| c.width()).sum()
    }

    /// Rows that fit in one page.
    pub fn rows_per_page(&self) -> u32 {
        let n = PAGE_SIZE / self.row_len();
        assert!(n > 0, "row wider than a page");
        n
    }

    /// Byte offset of column `i` within a row.
    pub fn col_offset(&self, i: usize) -> u32 {
        self.cols[..i].iter().map(|c| c.width()).sum()
    }

    /// Encodes a row (must match the schema).
    pub fn encode(&self, row: &Row) -> Vec<u8> {
        assert_eq!(row.len(), self.cols.len(), "row/schema arity mismatch");
        let mut out = Vec::with_capacity(self.row_len() as usize);
        for (v, c) in row.iter().zip(&self.cols) {
            match (v, c) {
                (Value::U32(x), ColType::U32) => out.extend_from_slice(&x.to_le_bytes()),
                (Value::U64(x), ColType::U64) => out.extend_from_slice(&x.to_le_bytes()),
                (Value::Str(s), ColType::Str(n)) => {
                    let mut bytes = s.as_bytes().to_vec();
                    bytes.resize(*n as usize, b' ');
                    out.extend_from_slice(&bytes[..*n as usize]);
                }
                (v, c) => panic!("value {v:?} does not match column {c:?}"),
            }
        }
        out
    }

    /// Decodes a row.
    pub fn decode(&self, bytes: &[u8]) -> Row {
        assert!(bytes.len() >= self.row_len() as usize, "short row buffer");
        let mut row = Vec::with_capacity(self.cols.len());
        let mut off = 0usize;
        for c in &self.cols {
            match c {
                ColType::U32 => {
                    row.push(Value::U32(u32::from_le_bytes(
                        bytes[off..off + 4].try_into().expect("4 bytes"),
                    )));
                    off += 4;
                }
                ColType::U64 => {
                    row.push(Value::U64(u64::from_le_bytes(
                        bytes[off..off + 8].try_into().expect("8 bytes"),
                    )));
                    off += 8;
                }
                ColType::Str(n) => {
                    let s = String::from_utf8_lossy(&bytes[off..off + *n as usize])
                        .trim_end()
                        .to_string();
                    row.push(Value::Str(s));
                    off += *n as usize;
                }
            }
        }
        row
    }

    /// Decodes a single column of a row (predicate evaluation without
    /// materialising the row).
    pub fn decode_col(&self, bytes: &[u8], i: usize) -> Value {
        let off = self.col_offset(i) as usize;
        match self.cols[i] {
            ColType::U32 => Value::U32(u32::from_le_bytes(
                bytes[off..off + 4].try_into().expect("4 bytes"),
            )),
            ColType::U64 => Value::U64(u64::from_le_bytes(
                bytes[off..off + 8].try_into().expect("8 bytes"),
            )),
            ColType::Str(n) => Value::Str(
                String::from_utf8_lossy(&bytes[off..off + n as usize])
                    .trim_end()
                    .to_string(),
            ),
        }
    }
}

/// Table metadata.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Dense id.
    pub id: TableId,
    /// Name (for lookups and diagnostics).
    pub name: String,
    /// The schema.
    pub schema: Schema,
    /// Backing file path in the simulated filesystem.
    pub path: String,
    /// Current row count. Guarded by the engine's table latch.
    pub nrows: u64,
}

impl TableMeta {
    /// Page number and in-page byte offset of row `idx`.
    pub fn locate(&self, idx: u64) -> (u64, u32) {
        let rpp = self.schema.rows_per_page() as u64;
        let page = idx / rpp;
        let slot = (idx % rpp) as u32;
        (page, slot * self.schema.row_len())
    }

    /// Number of pages currently holding rows.
    pub fn pages(&self) -> u64 {
        let rpp = self.schema.rows_per_page() as u64;
        self.nrows.div_ceil(rpp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![ColType::U32, ColType::U64, ColType::Str(8)])
    }

    #[test]
    fn row_roundtrip() {
        let s = schema();
        let row = vec![Value::U32(7), Value::U64(1 << 40), Value::Str("abc".into())];
        let bytes = s.encode(&row);
        assert_eq!(bytes.len() as u32, s.row_len());
        assert_eq!(s.decode(&bytes), row);
    }

    #[test]
    fn decode_col_matches_full_decode() {
        let s = schema();
        let row = vec![Value::U32(42), Value::U64(99), Value::Str("xy".into())];
        let bytes = s.encode(&row);
        assert_eq!(s.decode_col(&bytes, 0), Value::U32(42));
        assert_eq!(s.decode_col(&bytes, 1), Value::U64(99));
        assert_eq!(s.decode_col(&bytes, 2), Value::Str("xy".into()));
    }

    #[test]
    fn string_truncation_and_padding() {
        let s = Schema::new(vec![ColType::Str(4)]);
        let long = s.encode(&vec![Value::Str("abcdefgh".into())]);
        assert_eq!(&long, b"abcd");
        let short = s.encode(&vec![Value::Str("a".into())]);
        assert_eq!(&short, b"a   ");
        assert_eq!(s.decode(&short)[0], Value::Str("a".into()));
    }

    #[test]
    fn locate_rows_on_pages() {
        let meta = TableMeta {
            id: TableId(0),
            name: "t".into(),
            schema: Schema::new(vec![ColType::U64; 4]), // 32-byte rows, 128/page
            path: "/db/t".into(),
            nrows: 300,
        };
        assert_eq!(meta.locate(0), (0, 0));
        assert_eq!(meta.locate(127), (0, 127 * 32));
        assert_eq!(meta.locate(128), (1, 0));
        assert_eq!(meta.pages(), 3);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        schema().encode(&vec![Value::U32(1)]);
    }

    #[test]
    #[should_panic(expected = "row wider than a page")]
    fn oversized_row_panics() {
        Schema::new(vec![ColType::Str(5000)]).rows_per_page();
    }
}
