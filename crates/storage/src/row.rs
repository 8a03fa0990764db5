//! Typed values and row (de)serialization against a schema.
//!
//! Covers the column types of the paper's Table 5: `INTEGER`, `FLOAT8`,
//! `VARCHAR`/`TEXT`, and `OID` (blob). Rows are encoded schema-directed:
//! fixed-width for `Int`/`Float`, length-prefixed for `Text`. A `Blob`
//! value carries a one-byte tag: inline, followed by a `u32` length and
//! the bytes themselves, or overflow, followed by the `u64` first page of
//! an overflow chain (see [`crate::blob`] for when each form is used).

use crate::blob::BlobRef;
use crate::error::StorageError;
use crate::PageId;

/// Blob tag: the value is the first page of an overflow chain.
const BLOB_OVERFLOW: u8 = 1;
/// Blob tag: the value's bytes are stored inline in the row.
const BLOB_INLINE: u8 = 2;

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer (`INTEGER`).
    Int,
    /// 64-bit float (`FLOAT8`).
    Float,
    /// Variable-length string (`VARCHAR`/`TEXT`).
    Text,
    /// Blob reference (`OID`).
    Blob,
}

/// A table schema: named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Column definitions in order.
    pub cols: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(cols: &[(&str, ColumnType)]) -> Schema {
        Schema {
            cols: cols.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// Index of a named column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|(n, _)| n == name)
    }
}

/// A single value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Text.
    Text(String),
    /// Blob stored in an overflow chain: the chain's first page.
    Blob(PageId),
    /// Blob bytes stored inline in the row.
    InlineBlob(Vec<u8>),
}

impl Value {
    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        if let Value::Int(v) = self {
            Some(*v)
        } else {
            None
        }
    }

    /// The float inside, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        if let Value::Float(v) = self {
            Some(*v)
        } else {
            None
        }
    }

    /// The text inside, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        if let Value::Text(v) = self {
            Some(v)
        } else {
            None
        }
    }

    /// The overflow chain's first page, if this is a `Blob`.
    pub fn as_blob(&self) -> Option<PageId> {
        if let Value::Blob(v) = self {
            Some(*v)
        } else {
            None
        }
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// Encode a row against its schema.
pub fn encode_row(schema: &Schema, row: &Row) -> Result<Vec<u8>, StorageError> {
    if row.len() != schema.cols.len() {
        return Err(StorageError::SchemaMismatch("wrong column count"));
    }
    let mut out = Vec::with_capacity(row.len() * 9);
    for ((_, ty), val) in schema.cols.iter().zip(row) {
        match (ty, val) {
            (ColumnType::Int, Value::Int(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColumnType::Float, Value::Float(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColumnType::Blob, Value::Blob(v)) => {
                out.push(BLOB_OVERFLOW);
                out.extend_from_slice(&v.to_le_bytes());
            }
            (ColumnType::Blob, Value::InlineBlob(b)) => {
                let len = u32::try_from(b.len())
                    .map_err(|_| StorageError::SchemaMismatch("blob longer than u32::MAX"))?;
                out.push(BLOB_INLINE);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(b);
            }
            (ColumnType::Text, Value::Text(s)) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            _ => {
                return Err(StorageError::SchemaMismatch(
                    "value type does not match column",
                ))
            }
        }
    }
    Ok(out)
}

/// Decode a row against its schema.
pub fn decode_row(schema: &Schema, bytes: &[u8]) -> Result<Row, StorageError> {
    let mut r = RowReader::new(schema, bytes);
    let mut row = Vec::with_capacity(schema.cols.len());
    for (_, ty) in &schema.cols {
        row.push(match ty {
            ColumnType::Int => Value::Int(r.int()?),
            ColumnType::Float => Value::Float(r.float()?),
            ColumnType::Text => Value::Text(r.text()?.to_string()),
            ColumnType::Blob => match r.blob()? {
                BlobRef::Inline(b) => Value::InlineBlob(b.to_vec()),
                BlobRef::Overflow(pid) => Value::Blob(pid),
            },
        });
    }
    r.finish()?;
    Ok(row)
}

/// Borrowed, allocation-free row reader: walks a row's encoded bytes
/// field by field against the schema, lending `&str` text slices instead
/// of allocating `String`s the way [`decode_row`] does. The scan hot path
/// decodes every MAP/k-MAP row through this, so a filescan performs zero
/// per-row string allocations.
///
/// Call the typed readers in schema order, then [`RowReader::finish`] to
/// assert the row was fully consumed; every check [`decode_row`] performs
/// (length, UTF-8, type agreement, trailing bytes) is performed here with
/// the same errors.
#[derive(Debug)]
pub struct RowReader<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
    pos: usize,
    col: usize,
}

impl<'a> RowReader<'a> {
    /// Start reading `bytes` as a row of `schema`.
    pub fn new(schema: &'a Schema, bytes: &'a [u8]) -> RowReader<'a> {
        RowReader {
            schema,
            bytes,
            pos: 0,
            col: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.bytes.len() - self.pos < n {
            return Err(StorageError::SchemaMismatch("row too short"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn expect(&mut self, ty: ColumnType) -> Result<(), StorageError> {
        match self.schema.cols.get(self.col) {
            Some((_, t)) if *t == ty => {
                self.col += 1;
                Ok(())
            }
            _ => Err(StorageError::SchemaMismatch(
                "value type does not match column",
            )),
        }
    }

    /// Read the next column as an `Int`.
    pub fn int(&mut self) -> Result<i64, StorageError> {
        self.expect(ColumnType::Int)?;
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read the next column as a `Float`.
    pub fn float(&mut self) -> Result<f64, StorageError> {
        self.expect(ColumnType::Float)?;
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read the next column as a `Blob`: the inline bytes, borrowed from
    /// the row, or the first page of its overflow chain.
    pub fn blob(&mut self) -> Result<BlobRef<'a>, StorageError> {
        self.expect(ColumnType::Blob)?;
        match self.take(1)?[0] {
            BLOB_INLINE => {
                let len = u32::from_le_bytes(self.take(4)?.try_into().expect("len")) as usize;
                Ok(BlobRef::Inline(self.take(len)?))
            }
            BLOB_OVERFLOW => Ok(BlobRef::Overflow(u64::from_le_bytes(
                self.take(8)?.try_into().expect("len"),
            ))),
            _ => Err(StorageError::SchemaMismatch("unknown blob tag")),
        }
    }

    /// Read the next column as `Text`, borrowing from the row bytes.
    pub fn text(&mut self) -> Result<&'a str, StorageError> {
        self.expect(ColumnType::Text)?;
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("len")) as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StorageError::SchemaMismatch("text is not UTF-8"))
    }

    /// Assert every column was read and no bytes trail the row — the same
    /// completeness checks [`decode_row`] applies.
    pub fn finish(self) -> Result<(), StorageError> {
        if self.col != self.schema.cols.len() {
            return Err(StorageError::SchemaMismatch("row read ended early"));
        }
        if self.pos != self.bytes.len() {
            return Err(StorageError::SchemaMismatch("trailing bytes after row"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claims_schema() -> Schema {
        // The paper's §2.1 Claims(DocID, Year, Loss, DocData) example.
        Schema::new(&[
            ("DocID", ColumnType::Int),
            ("Year", ColumnType::Int),
            ("Loss", ColumnType::Float),
            ("DocData", ColumnType::Blob),
        ])
    }

    #[test]
    fn roundtrip_all_types() {
        let schema = Schema::new(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("t", ColumnType::Text),
            ("b", ColumnType::Blob),
        ]);
        let row: Row = vec![
            Value::Int(-42),
            Value::Float(2.75),
            Value::Text("U.S.C. 2345".into()),
            Value::Blob(9001),
        ];
        let bytes = encode_row(&schema, &row).unwrap();
        assert_eq!(decode_row(&schema, &bytes).unwrap(), row);
    }

    #[test]
    fn claims_row_roundtrip() {
        let schema = claims_schema();
        let row: Row = vec![
            Value::Int(7),
            Value::Int(2010),
            Value::Float(1200.50),
            Value::Blob(3),
        ];
        let bytes = encode_row(&schema, &row).unwrap();
        let back = decode_row(&schema, &bytes).unwrap();
        assert_eq!(back[1].as_int(), Some(2010));
        assert_eq!(back[2].as_float(), Some(1200.50));
        assert_eq!(back[3].as_blob(), Some(3));
    }

    #[test]
    fn wrong_arity_rejected() {
        let schema = claims_schema();
        let row: Row = vec![Value::Int(7)];
        assert!(matches!(
            encode_row(&schema, &row),
            Err(StorageError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn wrong_type_rejected() {
        let schema = Schema::new(&[("i", ColumnType::Int)]);
        assert!(matches!(
            encode_row(&schema, &vec![Value::Text("no".into())]),
            Err(StorageError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn truncated_and_trailing_bytes_rejected() {
        let schema = Schema::new(&[("t", ColumnType::Text)]);
        let bytes = encode_row(&schema, &vec![Value::Text("hello".into())]).unwrap();
        assert!(decode_row(&schema, &bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_row(&schema, &extra).is_err());
    }

    #[test]
    fn empty_text_roundtrip() {
        let schema = Schema::new(&[("t", ColumnType::Text)]);
        let bytes = encode_row(&schema, &vec![Value::Text(String::new())]).unwrap();
        assert_eq!(decode_row(&schema, &bytes).unwrap()[0].as_text(), Some(""));
    }

    #[test]
    fn row_reader_borrows_and_agrees_with_decode_row() {
        let schema = Schema::new(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("t", ColumnType::Text),
            ("b", ColumnType::Blob),
        ]);
        let row: Row = vec![
            Value::Int(-42),
            Value::Float(2.75),
            Value::Text("U.S.C. 2345".into()),
            Value::Blob(9001),
        ];
        let bytes = encode_row(&schema, &row).unwrap();
        let mut r = RowReader::new(&schema, &bytes);
        assert_eq!(r.int().unwrap(), -42);
        assert_eq!(r.float().unwrap(), 2.75);
        assert_eq!(r.text().unwrap(), "U.S.C. 2345");
        assert_eq!(r.blob().unwrap(), BlobRef::Overflow(9001));
        r.finish().unwrap();
    }

    #[test]
    fn row_reader_rejects_misuse_and_corruption() {
        let schema = Schema::new(&[("t", ColumnType::Text), ("f", ColumnType::Float)]);
        let bytes =
            encode_row(&schema, &vec![Value::Text("hi".into()), Value::Float(0.5)]).unwrap();
        // Wrong type for the column.
        assert!(RowReader::new(&schema, &bytes).int().is_err());
        // Ending early.
        let mut r = RowReader::new(&schema, &bytes);
        r.text().unwrap();
        assert!(r.finish().is_err());
        // Trailing bytes.
        let mut extra = bytes.clone();
        extra.push(0);
        let mut r = RowReader::new(&schema, &extra);
        r.text().unwrap();
        r.float().unwrap();
        assert!(r.finish().is_err());
        // Truncated text.
        let mut r = RowReader::new(&schema, &bytes[..bytes.len() - 9]);
        assert!(r.text().is_err() || r.float().is_err());
        // Invalid UTF-8.
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(RowReader::new(&schema, &bad).text().is_err());
    }

    #[test]
    fn inline_and_overflow_blobs_agree_across_readers() {
        let schema = Schema::new(&[
            ("k", ColumnType::Int),
            ("b", ColumnType::Blob),
            ("t", ColumnType::Text),
        ]);
        for blob in [Value::InlineBlob(b"SFA1 bytes".to_vec()), Value::Blob(77)] {
            let row: Row = vec![Value::Int(5), blob, Value::Text("after".into())];
            let bytes = encode_row(&schema, &row).unwrap();
            let decoded = decode_row(&schema, &bytes).unwrap();
            assert_eq!(decoded, row);
            let mut r = RowReader::new(&schema, &bytes);
            assert_eq!(r.int().unwrap(), 5);
            let got = r.blob().unwrap();
            assert_eq!(r.text().unwrap(), "after");
            r.finish().unwrap();
            match got {
                BlobRef::Inline(b) => assert_eq!(decoded[1], Value::InlineBlob(b.to_vec())),
                BlobRef::Overflow(pid) => assert_eq!(decoded[1], Value::Blob(pid)),
            }
        }
    }

    #[test]
    fn unknown_blob_tag_is_a_schema_mismatch() {
        let schema = Schema::new(&[("k", ColumnType::Int), ("b", ColumnType::Blob)]);
        let mut bytes = encode_row(&schema, &vec![Value::Int(1), Value::Blob(9)]).unwrap();
        for tag in [0u8, 3, 0xFF] {
            bytes[8] = tag;
            assert!(matches!(
                decode_row(&schema, &bytes),
                Err(StorageError::SchemaMismatch("unknown blob tag"))
            ));
            let mut r = RowReader::new(&schema, &bytes);
            r.int().unwrap();
            assert!(matches!(
                r.blob(),
                Err(StorageError::SchemaMismatch("unknown blob tag"))
            ));
        }
        // A truncated inline blob is caught too.
        let inline = encode_row(
            &schema,
            &vec![Value::Int(1), Value::InlineBlob(vec![7; 10])],
        )
        .unwrap();
        assert!(decode_row(&schema, &inline[..inline.len() - 1]).is_err());
    }

    #[test]
    fn schema_col_lookup() {
        let schema = claims_schema();
        assert_eq!(schema.col("Year"), Some(1));
        assert_eq!(schema.col("Nope"), None);
    }
}
