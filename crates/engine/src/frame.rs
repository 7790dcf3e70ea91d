//! `Frame`: a schema plus columnar data — the unit of data flowing
//! between operators, nodes and the anonymizer.
//!
//! ## Layout and ownership
//!
//! Data lives column-major: one typed [`ColumnData`] buffer per column
//! (see [`crate::column`]), each behind an [`Arc`]. Cloning a frame —
//! or sharing columns between pipeline stages — therefore copies
//! *pointers*, not cells: `Frame::clone` is O(columns). Mutation goes
//! through copy-on-write (`Arc::make_mut`), so exclusively-owned frames
//! mutate in place and shared ones split off a private copy of just the
//! touched column.
//!
//! A row-view adapter ([`Frame::row`], [`Frame::iter_rows`],
//! [`Frame::to_rows`]) keeps row-at-a-time call sites working; builders
//! ([`Frame::new`], [`Frame::push_row`]) accept row-major input.
//!
//! `schema` stays a public field for ergonomic read access. Adding a
//! column must go through [`Frame::push_column`] so schema and buffers
//! stay in sync.

use std::fmt;
use std::sync::Arc;

use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::schema::{Column, Schema};
use crate::value::Value;

/// A row is just an ordered list of values matching some schema.
pub type Row = Vec<Value>;

/// An in-memory relation: schema + column buffers.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Column layout.
    pub schema: Schema,
    /// One shared buffer per column.
    columns: Vec<Arc<ColumnData>>,
    /// Row count (kept explicitly so zero-column frames — `SELECT` with
    /// no `FROM` — still know their cardinality).
    len: usize,
}

impl Frame {
    /// An empty frame with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Arc::new(ColumnData::empty(c.data_type)))
            .collect();
        Frame { schema, columns, len: 0 }
    }

    /// A frame of `rows` rows and no columns — `SELECT` with no `FROM`,
    /// a grouping that keeps no column: only its cardinality, without
    /// a buffer per row.
    pub fn without_columns(rows: usize) -> Self {
        Frame { schema: Schema::default(), columns: Vec::new(), len: rows }
    }

    /// Build from row-major parts, validating row arity.
    pub fn new(schema: Schema, rows: Vec<Row>) -> EngineResult<Self> {
        let width = schema.len();
        for row in &rows {
            if row.len() != width {
                return Err(EngineError::SchemaMismatch { expected: width, got: row.len() });
            }
        }
        Ok(Self::from_rows(schema, rows))
    }

    /// Build from row-major parts whose arity is correct by construction
    /// (e.g. executor-internal buffers). Panics on arity mismatch in
    /// debug builds.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Self {
        let len = rows.len();
        let mut builders: Vec<ColumnData> = schema
            .columns()
            .iter()
            .map(|c| ColumnData::with_capacity(c.data_type, len))
            .collect();
        for row in rows {
            debug_assert_eq!(row.len(), builders.len(), "row arity must match schema");
            for (builder, v) in builders.iter_mut().zip(row) {
                builder.push(v);
            }
        }
        Frame { schema, columns: builders.into_iter().map(Arc::new).collect(), len }
    }

    /// Build from column buffers, validating count and lengths.
    pub fn from_columns(schema: Schema, columns: Vec<ColumnData>) -> EngineResult<Self> {
        Self::from_arc_columns(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Build from shared column buffers (zero-copy: single-column
    /// projections and pipeline hand-offs share the underlying data).
    pub fn from_arc_columns(
        schema: Schema,
        columns: Vec<Arc<ColumnData>>,
    ) -> EngineResult<Self> {
        if columns.len() != schema.len() {
            return Err(EngineError::SchemaMismatch {
                expected: schema.len(),
                got: columns.len(),
            });
        }
        let len = columns.first().map(|c| c.len()).unwrap_or(0);
        for c in &columns {
            if c.len() != len {
                return Err(EngineError::SchemaMismatch { expected: len, got: c.len() });
            }
        }
        Ok(Frame { schema, columns, len })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow one column's buffer.
    pub fn column(&self, index: usize) -> &ColumnData {
        &self.columns[index]
    }

    /// Shared handle to one column's buffer (zero-copy projection).
    pub fn column_arc(&self, index: usize) -> Arc<ColumnData> {
        Arc::clone(&self.columns[index])
    }

    /// Mutable access to one column (copy-on-write when shared).
    pub fn column_mut(&mut self, index: usize) -> &mut ColumnData {
        Arc::make_mut(&mut self.columns[index])
    }

    /// Materialise cell (`row`, `column`) as a [`Value`].
    pub fn value(&self, row: usize, column: usize) -> Value {
        self.columns[column].value(row)
    }

    /// Overwrite cell (`row`, `column`).
    pub fn set_value(&mut self, row: usize, column: usize, v: Value) {
        Arc::make_mut(&mut self.columns[column]).set(row, v);
    }

    /// Materialise one row.
    pub fn row(&self, index: usize) -> Row {
        self.columns.iter().map(|c| c.value(index)).collect()
    }

    /// Iterate rows, materialising each (row-view adapter).
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Materialise all rows (row-view adapter).
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter_rows().collect()
    }

    /// Consume into row-major form; exclusively-owned buffers are
    /// drained (strings move, they are not cloned).
    pub fn into_rows(self) -> Vec<Row> {
        let len = self.len;
        let mut cols: Vec<std::vec::IntoIter<Value>> = self
            .columns
            .into_iter()
            .map(|arc| {
                let col = Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone());
                col.into_values().into_iter()
            })
            .collect();
        (0..len)
            .map(|_| cols.iter_mut().map(|it| it.next().expect("column length")).collect())
            .collect()
    }

    /// Append a row, validating arity.
    pub fn push_row(&mut self, row: Row) -> EngineResult<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            Arc::make_mut(col).push(v);
        }
        self.len += 1;
        Ok(())
    }

    /// Append a column (schema and buffers stay in sync).
    pub fn push_column(&mut self, column: Column, data: ColumnData) -> EngineResult<()> {
        if data.len() != self.len {
            return Err(EngineError::SchemaMismatch { expected: self.len, got: data.len() });
        }
        self.schema.push(column);
        self.columns.push(Arc::new(data));
        Ok(())
    }

    /// The values of one column, by index.
    pub fn column_values(&self, index: usize) -> impl Iterator<Item = Value> + '_ {
        self.columns[index].iter_values()
    }

    /// Estimated wire size of the whole frame in bytes (values only),
    /// used by the Figure 3 data-reduction experiments. O(columns):
    /// every column caches its byte count.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.bytes()).sum()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.len * self.schema.len()
    }

    /// New frame with the rows selected by `indices`, in that order.
    pub fn select_rows(&self, indices: &[usize]) -> Frame {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(indices)))
            .collect();
        Frame { schema: self.schema.clone(), columns, len: indices.len() }
    }

    /// New frame keeping the rows where `mask` is true. A mask that
    /// keeps every row shares the columns (an `Arc` bump each).
    pub fn filter_rows(&self, mask: &[bool]) -> Frame {
        debug_assert_eq!(mask.len(), self.len);
        let kept = mask.iter().filter(|&&m| m).count();
        if kept == self.len {
            return self.clone();
        }
        let columns = self.columns.iter().map(|c| Arc::new(c.filter(mask))).collect();
        Frame { schema: self.schema.clone(), columns, len: kept }
    }

    /// Keep only the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        for col in &mut self.columns {
            Arc::make_mut(col).truncate(n);
        }
        self.len = n;
    }

    /// Drop the first `n` rows without moving any: the columns reclaim
    /// the dropped cells when they would otherwise grow (see
    /// [`ColumnData::skip_front`]).
    pub fn skip_rows(&mut self, n: usize) {
        let n = n.min(self.len);
        for col in &mut self.columns {
            Arc::make_mut(col).skip_front(n);
        }
        self.len -= n;
    }

    /// Free the cells [`Frame::skip_rows`] dropped now, by one move of
    /// the live ones.
    pub(crate) fn reclaim(&mut self) {
        for col in &mut self.columns {
            Arc::make_mut(col).reclaim();
        }
    }

    /// New frame holding the rows from `start` to the end. `start == 0`
    /// shares every column buffer (zero-copy); otherwise the suffix is
    /// copied, `O(rows - start)`. The delta path of incremental
    /// execution reads appended stream suffixes through this.
    pub fn slice_tail(&self, start: usize) -> Frame {
        if start == 0 {
            return self.clone();
        }
        let start = start.min(self.len);
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.slice_tail(start)))
            .collect();
        Frame { schema: self.schema.clone(), columns, len: self.len - start }
    }

    /// Append all rows of `other` by reference; schemas must have the
    /// same width. One copy of `other`'s cells — use this when the
    /// caller keeps `other` alive (the stream-ingest path retains the
    /// batch as the table's last delta), where [`Frame::append`] on a
    /// clone would copy twice.
    pub fn append_copy(&mut self, other: &Frame) -> EngineResult<()> {
        if other.schema.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch {
                expected: self.schema.len(),
                got: other.schema.len(),
            });
        }
        self.len += other.len;
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(dst).append_from(src);
        }
        Ok(())
    }

    /// Append all rows of `other` (used by `UNION`); schemas must have
    /// the same width.
    pub fn append(&mut self, other: Frame) -> EngineResult<()> {
        if other.schema.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch {
                expected: self.schema.len(),
                got: other.schema.len(),
            });
        }
        self.len += other.len;
        for (dst, src) in self.columns.iter_mut().zip(other.columns) {
            let src = Arc::try_unwrap(src).unwrap_or_else(|shared| (*shared).clone());
            Arc::make_mut(dst).append_owned(src);
        }
        Ok(())
    }

    /// Do the two frames share every column buffer (pointer identity)?
    /// Used to verify the pipeline's copy-free hand-offs.
    pub fn shares_columns(&self, other: &Frame) -> bool {
        self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Render as an aligned text table (for examples and the experiment
    /// harness). Shows at most `max_rows` rows, with an ellipsis line.
    pub fn to_table_string(&self, max_rows: usize) -> String {
        let headers: Vec<String> =
            self.schema.columns().iter().map(|c| c.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let shown = self.len.min(max_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            let rendered: Vec<String> =
                self.columns.iter().map(|c| c.value(i).to_string()).collect();
            for (i, cell) in rendered.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
            cells.push(rendered);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in headers.iter().enumerate() {
            out.push_str(&format!("| {h:w$} ", w = widths[i]));
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("| {c:w$} ", w = widths[i]));
            }
            out.push_str("|\n");
        }
        if self.len > shown {
            out.push_str(&format!("… {} more row(s)\n", self.len - shown));
        }
        sep(&mut out);
        out
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.len != other.len {
            return false;
        }
        self.columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table_string(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn frame() -> Frame {
        let schema = Schema::from_pairs(&[("x", DataType::Integer), ("s", DataType::Text)]);
        Frame::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("bb".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_is_validated() {
        let schema = Schema::from_pairs(&[("x", DataType::Integer)]);
        assert!(Frame::new(schema.clone(), vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
        let mut f = Frame::empty(schema);
        assert!(f.push_row(vec![]).is_err());
        assert!(f.push_row(vec![Value::Int(1)]).is_ok());
    }

    #[test]
    fn size_accounting() {
        let f = frame();
        // 8 (int) + 5 (str "a"+4) + 8 + 6 = 27
        assert_eq!(f.size_bytes(), 27);
        assert_eq!(f.cell_count(), 4);
    }

    #[test]
    fn column_values_iterates() {
        let f = frame();
        let xs: Vec<_> = f.column_values(0).collect();
        assert_eq!(xs, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn table_rendering_truncates() {
        let f = frame();
        let s = f.to_table_string(1);
        assert!(s.contains("| x"));
        assert!(s.contains("1 more row"));
    }

    #[test]
    fn row_view_roundtrips() {
        let f = frame();
        let rows = f.to_rows();
        assert_eq!(rows[1], vec![Value::Int(2), Value::Str("bb".into())]);
        let rebuilt = Frame::new(f.schema.clone(), rows).unwrap();
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn clone_shares_buffers_and_cow_splits() {
        let f = frame();
        let mut g = f.clone();
        assert!(f.shares_columns(&g));
        g.set_value(0, 0, Value::Int(9));
        assert!(!f.shares_columns(&g));
        assert_eq!(f.value(0, 0), Value::Int(1), "original untouched");
        assert_eq!(g.value(0, 0), Value::Int(9));
    }

    #[test]
    fn select_filter_append_truncate() {
        let mut f = frame();
        let sel = f.select_rows(&[1, 0]);
        assert_eq!(sel.value(0, 0), Value::Int(2));
        assert!(f.filter_rows(&[true, true]).shares_columns(&f), "an all-pass mask copies nothing");
        let filtered = f.filter_rows(&[false, true]);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.value(0, 1), Value::Str("bb".into()));
        f.append(filtered).unwrap();
        assert_eq!(f.len(), 3);
        f.truncate(1);
        assert_eq!(f.len(), 1);
        assert_eq!(f.size_bytes(), 13);
        f.skip_rows(1);
        assert!(f.is_empty());
    }

    #[test]
    fn push_column_keeps_schema_in_sync() {
        let mut f = frame();
        let col = crate::column::ColumnData::from_values(vec![Value::Bool(true), Value::Null]);
        f.push_column(Column::new("b", DataType::Boolean), col).unwrap();
        assert_eq!(f.schema.len(), 3);
        assert_eq!(f.value(0, 2), Value::Bool(true));
        let bad = crate::column::ColumnData::from_values(vec![Value::Int(1)]);
        assert!(f.push_column(Column::new("c", DataType::Integer), bad).is_err());
    }

    #[test]
    fn zero_column_frames_keep_cardinality() {
        let f = Frame::new(Schema::default(), vec![vec![], vec![]]).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.size_bytes(), 0);
    }
}
