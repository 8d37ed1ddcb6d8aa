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
    /// Byte offset of each column within a row.
    offsets: Vec<u32>,
    row_len: u32,
}

impl Schema {
    /// Builds a schema.
    pub fn new(cols: Vec<ColType>) -> Self {
        assert!(!cols.is_empty());
        let mut offsets = Vec::with_capacity(cols.len());
        let mut row_len = 0;
        for c in &cols {
            offsets.push(row_len);
            row_len += c.width();
        }
        Self {
            cols,
            offsets,
            row_len,
        }
    }

    /// Row width in bytes.
    pub fn row_len(&self) -> u32 {
        self.row_len
    }

    /// Rows that fit in one page.
    pub fn rows_per_page(&self) -> u32 {
        let n = PAGE_SIZE / self.row_len;
        assert!(n > 0, "row wider than a page");
        n
    }

    /// Encodes a row (must match the schema).
    pub fn encode(&self, row: &Row) -> Vec<u8> {
        let mut out = vec![0; self.row_len as usize];
        self.encode_into(row, &mut out);
        out
    }

    /// Encodes a row into the first [`Schema::row_len`] bytes of `out`,
    /// byte for byte what [`Schema::encode`] returns.
    pub fn encode_into(&self, row: &Row, out: &mut [u8]) {
        assert_eq!(row.len(), self.cols.len(), "row/schema arity mismatch");
        let out = &mut out[..self.row_len as usize];
        for ((v, c), &off) in row.iter().zip(&self.cols).zip(&self.offsets) {
            let field = &mut out[off as usize..(off + c.width()) as usize];
            match (v, c) {
                (Value::U32(x), ColType::U32) => field.copy_from_slice(&x.to_le_bytes()),
                (Value::U64(x), ColType::U64) => field.copy_from_slice(&x.to_le_bytes()),
                (Value::Str(s), ColType::Str(_)) => {
                    let n = s.len().min(field.len());
                    field[..n].copy_from_slice(&s.as_bytes()[..n]);
                    field[n..].fill(b' ');
                }
                (v, c) => panic!("value {v:?} does not match column {c:?}"),
            }
        }
    }

    /// Decodes a row.
    pub fn decode(&self, bytes: &[u8]) -> Row {
        assert!(bytes.len() >= self.row_len as usize, "short row buffer");
        self.cols
            .iter()
            .enumerate()
            .map(|(i, c)| match c {
                ColType::U32 => Value::U32(self.u32_at(bytes, i)),
                ColType::U64 => Value::U64(self.u64_at(bytes, i)),
                ColType::Str(_) => Value::Str(
                    String::from_utf8_lossy(self.bytes_at(bytes, i))
                        .trim_end()
                        .to_string(),
                ),
            })
            .collect()
    }

    /// Column `i` of an encoded row, read in place; the column must be a
    /// [`ColType::U32`].
    #[inline]
    pub fn u32_at(&self, row: &[u8], i: usize) -> u32 {
        debug_assert_eq!(self.cols[i], ColType::U32);
        let off = self.offsets[i] as usize;
        u32::from_le_bytes(row[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Column `i` of an encoded row, read in place; the column must be a
    /// [`ColType::U64`].
    #[inline]
    pub fn u64_at(&self, row: &[u8], i: usize) -> u64 {
        debug_assert_eq!(self.cols[i], ColType::U64);
        let off = self.offsets[i] as usize;
        u64::from_le_bytes(row[off..off + 8].try_into().expect("8 bytes"))
    }

    /// The bytes of column `i` of an encoded row, borrowed in place with
    /// the string pad included ([`Schema::decode`] strips it).
    #[inline]
    pub fn bytes_at<'a>(&self, row: &'a [u8], i: usize) -> &'a [u8] {
        let off = self.offsets[i] as usize;
        &row[off..off + self.cols[i].width() as usize]
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
    fn accessors_match_full_decode_at_every_column() {
        let s = Schema::new(vec![
            ColType::U64,
            ColType::Str(1),
            ColType::U32,
            ColType::Str(9),
            ColType::U32,
            ColType::Str(3),
        ]);
        let rows = [
            vec![
                Value::U64(u64::MAX - 5),
                Value::Str("R".into()),
                Value::U32(0xDEAD_BEEF),
                Value::Str("".into()),
                Value::U32(0),
                Value::Str("abcdef".into()),
            ],
            vec![
                Value::U64(0),
                Value::Str(" ".into()),
                Value::U32(1),
                Value::Str("pad me ".into()),
                Value::U32(u32::MAX),
                Value::Str("x".into()),
            ],
        ];
        for row in &rows {
            let bytes = s.encode(row);
            let decoded = s.decode(&bytes);
            for (i, c) in s.cols.iter().enumerate() {
                let got = match c {
                    ColType::U32 => Value::U32(s.u32_at(&bytes, i)),
                    ColType::U64 => Value::U64(s.u64_at(&bytes, i)),
                    ColType::Str(n) => {
                        let field = s.bytes_at(&bytes, i);
                        assert_eq!(field.len(), *n as usize);
                        Value::Str(String::from_utf8_lossy(field).trim_end().to_string())
                    }
                };
                assert_eq!(got, decoded[i], "column {i}");
            }
        }
    }

    #[test]
    fn encode_into_writes_what_encode_returns() {
        let s = schema();
        let row = vec![
            Value::U32(42),
            Value::U64(99),
            Value::Str("toolongstr".into()),
        ];
        let mut buf = vec![0xAA; s.row_len() as usize + 3];
        s.encode_into(&row, &mut buf);
        assert_eq!(&buf[..s.row_len() as usize], &s.encode(&row)[..]);
        assert_eq!(
            &buf[s.row_len() as usize..],
            &[0xAA; 3],
            "nothing past the row"
        );
        let short = vec![Value::U32(1), Value::U64(2), Value::Str("a".into())];
        s.encode_into(&short, &mut buf);
        assert_eq!(&buf[..s.row_len() as usize], &s.encode(&short)[..]);
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
