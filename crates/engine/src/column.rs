//! Columnar storage: one [`ColumnData`] per frame column.
//!
//! Values of a column live in a typed buffer (`Vec<Option<i64>>`,
//! `Vec<Option<f64>>`, …) instead of row-major `Vec<Vec<Value>>`, so the
//! hot operators of the executor (filter, projection, aggregation,
//! window partitioning) can run column-at-a-time over dense memory. A
//! column whose values mix runtime types (legal — the engine is
//! dynamically typed) falls back to an exact [`Value`] buffer.
//!
//! Every column caches its wire size, which makes
//! [`crate::frame::Frame::size_bytes`] O(columns) instead of a rescan of
//! every cell per traffic hop.
//!
//! Dropping a column's front ([`ColumnData::skip_front`], the stream
//! retention trim) copies nothing: the dropped cells stay dead at the
//! front of the buffer until it would otherwise grow, so a sliding
//! window neither moves its live cells on every trim nor holds more
//! memory than a plain `Vec`.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use crate::plan::FxHashMap;
use crate::value::{DataType, GroupKey, Value};

/// Merge the run `extra` into the live run `v[start..]`, in place,
/// through the dead entries ahead of it: afterwards entry `k` of
/// `v[start - extra.len()..]` is the next entry of `extra` where
/// `from_extra[k]`, else the next live one; both runs keep their
/// order, and the entries before are dead. Only the live entries ahead
/// of the last one from `extra` move.
pub(crate) fn merge_front<T: Clone>(v: &mut [T], start: usize, extra: &[T], from_extra: &[bool]) {
    debug_assert!(start >= extra.len());
    debug_assert_eq!(v.len() - start + extra.len(), from_extra.len());
    let (mut write, mut read, mut merged) = (start - extra.len(), start, 0);
    for &from_extra in from_extra {
        if merged == extra.len() {
            break; // the rest is in place
        }
        if from_extra {
            v[write] = extra[merged].clone();
            merged += 1;
        } else {
            v.swap(write, read);
            read += 1;
        }
        write += 1;
    }
}

/// A cell buffer whose front drops in O(1): the first `start` entries
/// of `vec` are dead, and are reclaimed (by one move of the live ones)
/// only when the buffer would otherwise have to grow. Derefs to the
/// live cells.
#[derive(Debug)]
struct Cells<T> {
    vec: Vec<T>,
    start: usize,
}

impl<T> From<Vec<T>> for Cells<T> {
    fn from(vec: Vec<T>) -> Self {
        Cells { vec, start: 0 }
    }
}

impl<T> Deref for Cells<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.vec[self.start..]
    }
}

impl<T> DerefMut for Cells<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.vec[self.start..]
    }
}

impl<T: Clone> Clone for Cells<T> {
    /// Clones the live cells only.
    fn clone(&self) -> Self {
        Cells::from(self.to_vec())
    }
}

impl<T> Cells<T> {
    /// See [`merge_front`]; the dead front this merges through is the
    /// one [`Cells::skip_front`] left.
    fn merge_front(&mut self, extra: &[T], from_extra: &[bool])
    where
        T: Clone,
    {
        if self.start < extra.len() {
            // the skip emptied the buffer: the merge is `extra` alone
            self.vec.clear();
            self.start = 0;
            self.vec.extend_from_slice(extra);
            return;
        }
        merge_front(&mut self.vec, self.start, extra, from_extra);
        self.start -= extra.len();
    }

    /// The live cells as a `Vec`, reclaiming the dead front first.
    fn vec_mut(&mut self) -> &mut Vec<T> {
        self.vec.drain(..self.start);
        self.start = 0;
        &mut self.vec
    }

    /// Make room for `extra` more cells: reclaim the dead front rather
    /// than grow the buffer.
    fn reserve(&mut self, extra: usize) -> &mut Vec<T> {
        if self.start > 0 && self.vec.len() + extra > self.vec.capacity() {
            return self.vec_mut();
        }
        &mut self.vec
    }

    fn push(&mut self, x: T) {
        self.reserve(1).push(x);
    }

    fn extend_from_slice(&mut self, xs: &[T])
    where
        T: Clone,
    {
        self.reserve(xs.len()).extend_from_slice(xs);
    }

    fn append(&mut self, other: Cells<T>) {
        let mut other = other.into_vec();
        self.reserve(other.len()).append(&mut other);
    }

    fn truncate(&mut self, n: usize) {
        self.vec.truncate(self.start + n);
    }

    fn skip_front(&mut self, n: usize) {
        self.start += n.min(self.len());
        if self.start == self.vec.len() {
            self.vec.clear();
            self.start = 0;
        }
    }

    fn into_vec(mut self) -> Vec<T> {
        self.vec_mut();
        self.vec
    }
}

/// The typed buffer behind one column.
#[derive(Debug, Clone)]
enum ColumnBuf {
    /// 64-bit integers, `None` = NULL.
    Int(Cells<Option<i64>>),
    /// 64-bit floats, `None` = NULL.
    Float(Cells<Option<f64>>),
    /// Booleans, `None` = NULL.
    Bool(Cells<Option<bool>>),
    /// Text, `None` = NULL.
    Str(Cells<Option<String>>),
    /// Exact fallback for columns mixing runtime types.
    Mixed(Cells<Value>),
}

/// One column of a [`crate::frame::Frame`]: a typed value buffer plus
/// cached size accounting.
#[derive(Debug, Clone)]
pub struct ColumnData {
    buf: ColumnBuf,
    /// Cached wire size (sum of [`Value::size_bytes`] over all cells),
    /// maintained incrementally by every mutation.
    bytes: usize,
}

impl ColumnData {
    /// An empty column typed after `data_type`. The type is a starting
    /// hint: pushes of other types retype or promote the buffer.
    pub fn empty(data_type: DataType) -> Self {
        Self::with_capacity(data_type, 0)
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        let buf = match data_type {
            DataType::Integer => ColumnBuf::Int(Vec::with_capacity(capacity).into()),
            DataType::Float => ColumnBuf::Float(Vec::with_capacity(capacity).into()),
            DataType::Boolean => ColumnBuf::Bool(Vec::with_capacity(capacity).into()),
            DataType::Text => ColumnBuf::Str(Vec::with_capacity(capacity).into()),
        };
        ColumnData { buf, bytes: 0 }
    }

    /// A column over integer cells (`None` = NULL), taken as its buffer.
    pub fn from_ints(cells: Vec<Option<i64>>) -> Self {
        Self::from_buf(ColumnBuf::Int(cells.into()))
    }

    /// A column over float cells (`None` = NULL), taken as its buffer.
    pub fn from_floats(cells: Vec<Option<f64>>) -> Self {
        Self::from_buf(ColumnBuf::Float(cells.into()))
    }

    /// A column over boolean cells (`None` = NULL), taken as its buffer.
    pub fn from_bools(cells: Vec<Option<bool>>) -> Self {
        Self::from_buf(ColumnBuf::Bool(cells.into()))
    }

    /// A column over text cells (`None` = NULL), taken as its buffer.
    pub fn from_strs(cells: Vec<Option<String>>) -> Self {
        Self::from_buf(ColumnBuf::Str(cells.into()))
    }

    /// A column over `buf`, its cached size summed once: the size a
    /// [`ColumnData::push`] per cell would have left.
    fn from_buf(buf: ColumnBuf) -> Self {
        let mut out = ColumnData { buf, bytes: 0 };
        out.bytes = out.range_bytes(0..out.len());
        out
    }

    /// Build from owned values; the buffer type follows the first
    /// non-null value, mixing promotes to the exact representation.
    pub fn from_values(values: Vec<Value>) -> Self {
        let hint = values
            .iter()
            .find_map(Value::data_type)
            .unwrap_or(DataType::Float);
        let mut col = Self::with_capacity(hint, values.len());
        for v in values {
            col.push(v);
        }
        col
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match &self.buf {
            ColumnBuf::Int(v) => v.len(),
            ColumnBuf::Float(v) => v.len(),
            ColumnBuf::Bool(v) => v.len(),
            ColumnBuf::Str(v) => v.len(),
            ColumnBuf::Mixed(v) => v.len(),
        }
    }

    /// No cells?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached wire size of all cells (see [`Value::size_bytes`]).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The runtime type of the first non-null cell, if any.
    pub fn data_type(&self) -> Option<DataType> {
        match &self.buf {
            ColumnBuf::Int(v) => v.iter().find_map(|x| x.map(|_| DataType::Integer)),
            ColumnBuf::Float(v) => v.iter().find_map(|x| x.map(|_| DataType::Float)),
            ColumnBuf::Bool(v) => v.iter().find_map(|x| x.map(|_| DataType::Boolean)),
            ColumnBuf::Str(v) => v.iter().find_map(|x| x.as_ref().map(|_| DataType::Text)),
            ColumnBuf::Mixed(v) => v.iter().find_map(Value::data_type),
        }
    }

    /// Is cell `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match &self.buf {
            ColumnBuf::Int(v) => v[i].is_none(),
            ColumnBuf::Float(v) => v[i].is_none(),
            ColumnBuf::Bool(v) => v[i].is_none(),
            ColumnBuf::Str(v) => v[i].is_none(),
            ColumnBuf::Mixed(v) => v[i].is_null(),
        }
    }

    /// Materialise cell `i` as a [`Value`] (clones text).
    pub fn value(&self, i: usize) -> Value {
        match &self.buf {
            ColumnBuf::Int(v) => v[i].map(Value::Int).unwrap_or(Value::Null),
            ColumnBuf::Float(v) => v[i].map(Value::Float).unwrap_or(Value::Null),
            ColumnBuf::Bool(v) => v[i].map(Value::Bool).unwrap_or(Value::Null),
            ColumnBuf::Str(v) => {
                v[i].as_ref().map(|s| Value::Str(s.clone())).unwrap_or(Value::Null)
            }
            ColumnBuf::Mixed(v) => v[i].clone(),
        }
    }

    /// Numeric view of cell `i` (NULL and non-numbers are `None`).
    pub fn as_f64(&self, i: usize) -> Option<f64> {
        match &self.buf {
            ColumnBuf::Int(v) => v[i].map(|x| x as f64),
            ColumnBuf::Float(v) => v[i],
            ColumnBuf::Bool(_) | ColumnBuf::Str(_) => None,
            ColumnBuf::Mixed(v) => v[i].as_f64(),
        }
    }

    /// Direct access to the integer buffer when this column is dense
    /// integers (for batch kernels).
    pub fn int_slice(&self) -> Option<&[Option<i64>]> {
        match &self.buf {
            ColumnBuf::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Direct access to the float buffer when this column is dense
    /// floats (for batch kernels).
    pub fn float_slice(&self) -> Option<&[Option<f64>]> {
        match &self.buf {
            ColumnBuf::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Direct access to the boolean buffer when this column is dense
    /// booleans (for predicate masks).
    pub fn bool_slice(&self) -> Option<&[Option<bool>]> {
        match &self.buf {
            ColumnBuf::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Direct access to the text buffer when this column is dense
    /// strings.
    pub fn str_slice(&self) -> Option<&[Option<String>]> {
        match &self.buf {
            ColumnBuf::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Grouping key of cell `i`, consistent with [`Value::group_key`].
    pub fn group_key_at(&self, i: usize) -> GroupKey {
        match &self.buf {
            ColumnBuf::Int(v) => v[i].map(GroupKey::Int).unwrap_or(GroupKey::Null),
            ColumnBuf::Float(v) => v[i].map(float_group_key).unwrap_or(GroupKey::Null),
            ColumnBuf::Bool(v) => v[i].map(GroupKey::Bool).unwrap_or(GroupKey::Null),
            ColumnBuf::Str(v) => {
                v[i].as_ref().map(|s| GroupKey::Str(s.clone())).unwrap_or(GroupKey::Null)
            }
            ColumnBuf::Mixed(v) => v[i].group_key(),
        }
    }

    /// Number the cells by group: two cells share an id exactly when
    /// their [`GroupKey`]s are equal (integral floats fold onto ints,
    /// `-0.0` onto `0.0`, NaN compares by bits). Cells are hashed
    /// borrowed, by their typed buffer: no key is built, no text cloned.
    pub fn dense_ids(&self) -> DenseIds {
        let n = self.len();
        match &self.buf {
            ColumnBuf::Int(v) => DenseIds::number(n, |i| v[i]),
            // within one float buffer, equal keys are equal bits once
            // -0.0 is folded: an integral float has one bit pattern
            ColumnBuf::Float(v) => {
                DenseIds::number(n, |i| v[i].map(|x| if x == 0.0 { 0 } else { x.to_bits() }))
            }
            ColumnBuf::Bool(v) => DenseIds::number(n, |i| v[i]),
            ColumnBuf::Str(v) => DenseIds::number(n, |i| v[i].as_deref()),
            ColumnBuf::Mixed(_) => DenseIds::number(n, |i| KeyRef::of(self.cell_ref(i))),
        }
    }

    /// Feed cell `i`'s [`GroupKey`] to `state` borrowed: the bytes
    /// `self.group_key_at(i).hash(state)` feeds, with no key built and
    /// no text cloned.
    pub(crate) fn hash_key_at<H: Hasher>(&self, i: usize, state: &mut H) {
        KeyRef::of(self.cell_ref(i)).hash(state);
    }

    /// Are the [`GroupKey`]s of cell `i` and of `other`'s cell `j`
    /// equal? Compared borrowed, like [`ColumnData::hash_key_at`].
    pub(crate) fn key_eq_at(&self, i: usize, other: &ColumnData, j: usize) -> bool {
        KeyRef::of(self.cell_ref(i)) == KeyRef::of(other.cell_ref(j))
    }

    /// A copy of this column with cell `i` replaced by the text
    /// `label(i)` wherever that is `Some`, written in one pass. Cells,
    /// buffer and size are those a [`ColumnData::set`] per labelled cell
    /// leaves: a text or `Mixed` buffer keeps its kind, any other moves
    /// onto `Mixed` once a cell is labelled.
    pub fn relabeled<'a>(&self, label: impl Fn(usize) -> Option<&'a str>) -> ColumnData {
        let n = self.len();
        let buf = match &self.buf {
            ColumnBuf::Str(v) => ColumnBuf::Str(
                (0..n)
                    .map(|i| label(i).map(str::to_owned).or_else(|| v[i].clone()))
                    .collect::<Vec<_>>()
                    .into(),
            ),
            _ if (0..n).all(|i| label(i).is_none()) => self.buf.clone(),
            _ => ColumnBuf::Mixed(
                (0..n)
                    .map(|i| label(i).map_or_else(|| self.value(i), |l| Value::Str(l.to_owned())))
                    .collect::<Vec<_>>()
                    .into(),
            ),
        };
        ColumnData::from_buf(buf)
    }

    /// A borrowed, allocation-free view of cell `i`.
    fn cell_ref(&self, i: usize) -> CellRef<'_> {
        match &self.buf {
            ColumnBuf::Int(v) => v[i].map(CellRef::Int).unwrap_or(CellRef::Null),
            ColumnBuf::Float(v) => v[i].map(CellRef::Float).unwrap_or(CellRef::Null),
            ColumnBuf::Bool(v) => v[i].map(CellRef::Bool).unwrap_or(CellRef::Null),
            ColumnBuf::Str(v) => {
                v[i].as_deref().map(CellRef::Str).unwrap_or(CellRef::Null)
            }
            ColumnBuf::Mixed(v) => match &v[i] {
                Value::Null => CellRef::Null,
                Value::Bool(b) => CellRef::Bool(*b),
                Value::Int(x) => CellRef::Int(*x),
                Value::Float(x) => CellRef::Float(*x),
                Value::Str(s) => CellRef::Str(s),
            },
        }
    }

    /// Compare cell `i` of `self` with cell `j` of `other` under the
    /// total order of [`Value::total_cmp`], without materialising (or
    /// cloning) any value.
    pub fn cmp_at(&self, i: usize, other: &ColumnData, j: usize) -> Ordering {
        cmp_cells(self.cell_ref(i), other.cell_ref(j))
    }

    /// Structural equality of two cells, consistent with `Value`'s
    /// `PartialEq` (NULL == NULL, `Int(3) == Float(3.0)`).
    pub fn eq_at(&self, i: usize, other: &ColumnData, j: usize) -> bool {
        let a = self.cell_ref(i);
        let b = other.cell_ref(j);
        matches!(a, CellRef::Null) == matches!(b, CellRef::Null)
            && cmp_cells(a, b) == Ordering::Equal
    }

    /// Number of cell positions where the two equally-long columns
    /// differ (per [`ColumnData::eq_at`] semantics), with dense slice
    /// kernels for matching buffer types.
    pub fn count_diffs(&self, other: &ColumnData) -> usize {
        use ColumnBuf::*;
        debug_assert_eq!(self.len(), other.len());
        fn diff<T: PartialEq>(a: &[Option<T>], b: &[Option<T>]) -> usize {
            a.iter().zip(b).filter(|(x, y)| x != y).count()
        }
        match (&self.buf, &other.buf) {
            (Int(a), Int(b)) => diff(a, b),
            (Bool(a), Bool(b)) => diff(a, b),
            (Str(a), Str(b)) => diff(a, b),
            (Float(a), Float(b)) => a
                .iter()
                .zip(b.iter())
                .filter(|(x, y)| match (x, y) {
                    (None, None) => false,
                    // NaN-tolerant equality, as in Value::total_cmp
                    (Some(x), Some(y)) => {
                        x.partial_cmp(y).unwrap_or(Ordering::Equal) != Ordering::Equal
                    }
                    _ => true,
                })
                .count(),
            _ => (0..self.len()).filter(|&i| !self.eq_at(i, other, i)).count(),
        }
    }

    /// Are all cells numeric or NULL (i.e. usable as a numeric QID)?
    pub fn all_numeric_or_null(&self) -> bool {
        match &self.buf {
            ColumnBuf::Int(_) | ColumnBuf::Float(_) => true,
            ColumnBuf::Bool(v) => v.iter().all(Option::is_none),
            ColumnBuf::Str(v) => v.iter().all(Option::is_none),
            ColumnBuf::Mixed(v) => v.iter().all(|x| x.as_f64().is_some() || x.is_null()),
        }
    }

    /// Wire size of the cells in `range`: a typed pass per buffer, or
    /// none where every cell has one size (a numeric column without
    /// NULLs, or only NULLs; any boolean column).
    fn range_bytes(&self, range: std::ops::Range<usize>) -> usize {
        fn sized<T>(v: &[Option<T>], size: impl Fn(&T) -> usize) -> usize {
            v.iter().map(|x| x.as_ref().map_or(1, &size)).sum()
        }
        // a number takes 8 bytes and a NULL 1: a numeric column's total
        // of 8 or 1 per cell leaves no doubt about any cell
        let uniform = [8, 1].into_iter().find(|&cell| self.bytes == cell * self.len());
        let uniform = uniform.map(|cell| cell * range.len());
        match &self.buf {
            ColumnBuf::Int(v) => uniform.unwrap_or_else(|| sized(&v[range], |_| 8)),
            ColumnBuf::Float(v) => uniform.unwrap_or_else(|| sized(&v[range], |_| 8)),
            ColumnBuf::Bool(_) => range.len(),
            ColumnBuf::Str(v) => sized(&v[range], |s| s.len() + 4),
            ColumnBuf::Mixed(v) => v[range].iter().map(Value::size_bytes).sum(),
        }
    }

    /// Wire size of cell `i`.
    fn size_at(&self, i: usize) -> usize {
        match &self.buf {
            ColumnBuf::Int(v) => v[i].map_or(1, |_| 8),
            ColumnBuf::Float(v) => v[i].map_or(1, |_| 8),
            ColumnBuf::Bool(v) => v[i].map_or(1, |_| 1),
            ColumnBuf::Str(v) => v[i].as_ref().map_or(1, |s| s.len() + 4),
            ColumnBuf::Mixed(v) => v[i].size_bytes(),
        }
    }

    /// Append one value, retyping an all-null buffer or promoting to the
    /// exact representation when types mix.
    pub fn push(&mut self, v: Value) {
        self.bytes += v.size_bytes();
        match (&mut self.buf, v) {
            (ColumnBuf::Int(b), Value::Int(x)) => b.push(Some(x)),
            (ColumnBuf::Float(b), Value::Float(x)) => b.push(Some(x)),
            (ColumnBuf::Bool(b), Value::Bool(x)) => b.push(Some(x)),
            (ColumnBuf::Str(b), Value::Str(x)) => b.push(Some(x)),
            (ColumnBuf::Mixed(b), v) => b.push(v),
            (ColumnBuf::Int(b), Value::Null) => b.push(None),
            (ColumnBuf::Float(b), Value::Null) => b.push(None),
            (ColumnBuf::Bool(b), Value::Null) => b.push(None),
            (ColumnBuf::Str(b), Value::Null) => b.push(None),
            (_, v) => {
                self.adapt_for(&v);
                // one recursion at most: the buffer now accepts `v`
                self.bytes -= v.size_bytes();
                self.push(v);
            }
        }
    }

    /// Retype an all-null buffer to `v`'s type, or promote to `Mixed`.
    fn adapt_for(&mut self, v: &Value) {
        let len = self.len();
        let all_null = (0..len).all(|i| self.is_null(i));
        if all_null {
            let dt = v.data_type().expect("adapt_for is never called with NULL");
            self.buf = match dt {
                DataType::Integer => ColumnBuf::Int(vec![None; len].into()),
                DataType::Float => ColumnBuf::Float(vec![None; len].into()),
                DataType::Boolean => ColumnBuf::Bool(vec![None; len].into()),
                DataType::Text => ColumnBuf::Str(vec![None; len].into()),
            };
        } else {
            let values: Vec<Value> = (0..len).map(|i| self.value(i)).collect();
            self.buf = ColumnBuf::Mixed(values.into());
        }
    }

    /// Overwrite cell `i`, promoting the buffer if needed.
    pub fn set(&mut self, i: usize, v: Value) {
        self.bytes -= self.size_at(i);
        self.bytes += v.size_bytes();
        match (&mut self.buf, v) {
            (ColumnBuf::Int(b), Value::Int(x)) => b[i] = Some(x),
            (ColumnBuf::Float(b), Value::Float(x)) => b[i] = Some(x),
            (ColumnBuf::Bool(b), Value::Bool(x)) => b[i] = Some(x),
            (ColumnBuf::Str(b), Value::Str(x)) => b[i] = Some(x),
            (ColumnBuf::Mixed(b), v) => b[i] = v,
            (ColumnBuf::Int(b), Value::Null) => b[i] = None,
            (ColumnBuf::Float(b), Value::Null) => b[i] = None,
            (ColumnBuf::Bool(b), Value::Null) => b[i] = None,
            (ColumnBuf::Str(b), Value::Null) => b[i] = None,
            (_, v) => {
                let values: Vec<Value> = (0..self.len()).map(|k| self.value(k)).collect();
                self.buf = ColumnBuf::Mixed(values.into());
                let ColumnBuf::Mixed(b) = &mut self.buf else { unreachable!() };
                b[i] = v;
            }
        }
    }

    /// New column holding `indices.iter().map(|&i| self[i])`.
    pub fn gather(&self, indices: &[usize]) -> ColumnData {
        fn pick<T: Clone>(v: &[Option<T>], indices: &[usize]) -> Vec<Option<T>> {
            indices.iter().map(|&i| v[i].clone()).collect()
        }
        let buf = match &self.buf {
            ColumnBuf::Int(v) => ColumnBuf::Int(pick(v, indices).into()),
            ColumnBuf::Float(v) => ColumnBuf::Float(pick(v, indices).into()),
            ColumnBuf::Bool(v) => ColumnBuf::Bool(pick(v, indices).into()),
            ColumnBuf::Str(v) => ColumnBuf::Str(pick(v, indices).into()),
            ColumnBuf::Mixed(v) => {
                ColumnBuf::Mixed(indices.iter().map(|&i| v[i].clone()).collect::<Vec<_>>().into())
            }
        };
        ColumnData::from_buf(buf)
    }

    /// New column keeping the cells where `mask` is true, each buffer
    /// written once at its final length.
    pub fn filter(&self, mask: &[bool]) -> ColumnData {
        fn keep<T: Clone>(v: &[T], mask: &[bool], kept: usize) -> Cells<T> {
            let mut out = Vec::with_capacity(kept);
            out.extend(v.iter().zip(mask).filter(|(_, &m)| m).map(|(x, _)| x.clone()));
            out.into()
        }
        let kept = mask.iter().filter(|&&m| m).count();
        let buf = match &self.buf {
            ColumnBuf::Int(v) => ColumnBuf::Int(keep(v, mask, kept)),
            ColumnBuf::Float(v) => ColumnBuf::Float(keep(v, mask, kept)),
            ColumnBuf::Bool(v) => ColumnBuf::Bool(keep(v, mask, kept)),
            ColumnBuf::Str(v) => ColumnBuf::Str(keep(v, mask, kept)),
            ColumnBuf::Mixed(v) => ColumnBuf::Mixed(keep(v, mask, kept)),
        };
        ColumnData::from_buf(buf)
    }

    /// New column holding the cells from `start` to the end (bulk
    /// suffix copy; the typed buffers clone their slice directly).
    pub fn slice_tail(&self, start: usize) -> ColumnData {
        let start = start.min(self.len());
        let buf = match &self.buf {
            ColumnBuf::Int(v) => ColumnBuf::Int(v[start..].to_vec().into()),
            ColumnBuf::Float(v) => ColumnBuf::Float(v[start..].to_vec().into()),
            ColumnBuf::Bool(v) => ColumnBuf::Bool(v[start..].to_vec().into()),
            ColumnBuf::Str(v) => ColumnBuf::Str(v[start..].to_vec().into()),
            ColumnBuf::Mixed(v) => ColumnBuf::Mixed(v[start..].to_vec().into()),
        };
        ColumnData::from_buf(buf)
    }

    /// Keep the first `n` cells.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        self.bytes -= self.range_bytes(n..self.len());
        match &mut self.buf {
            ColumnBuf::Int(v) => v.truncate(n),
            ColumnBuf::Float(v) => v.truncate(n),
            ColumnBuf::Bool(v) => v.truncate(n),
            ColumnBuf::Str(v) => v.truncate(n),
            ColumnBuf::Mixed(v) => v.truncate(n),
        }
    }

    /// Drop the first `n` cells: no cell moves (see the module docs),
    /// and O(n) size accounting only for text and NULL-mixed columns.
    pub fn skip_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.bytes -= self.range_bytes(0..n);
        match &mut self.buf {
            ColumnBuf::Int(v) => v.skip_front(n),
            ColumnBuf::Float(v) => v.skip_front(n),
            ColumnBuf::Bool(v) => v.skip_front(n),
            ColumnBuf::Str(v) => v.skip_front(n),
            ColumnBuf::Mixed(v) => v.skip_front(n),
        }
    }

    /// Free the cells [`ColumnData::skip_front`] dropped now, by one
    /// move of the live ones.
    pub(crate) fn reclaim(&mut self) {
        match &mut self.buf {
            ColumnBuf::Int(v) => {
                v.vec_mut();
            }
            ColumnBuf::Float(v) => {
                v.vec_mut();
            }
            ColumnBuf::Bool(v) => {
                v.vec_mut();
            }
            ColumnBuf::Str(v) => {
                v.vec_mut();
            }
            ColumnBuf::Mixed(v) => {
                v.vec_mut();
            }
        }
    }

    /// Drop the first `n` (≥ `extra.len()`) cells, then merge
    /// `extra`'s cells in: result cell `k` is the next cell of `extra`
    /// where `from_extra[k]`, else the next remaining one of `self`
    /// (see [`merge_front`]). In place, through the dropped cells.
    pub(crate) fn merge_in(&mut self, n: usize, extra: &ColumnData, from_extra: &[bool]) {
        use ColumnBuf::*;
        debug_assert!(n >= extra.len());
        self.skip_front(n);
        match (&mut self.buf, &extra.buf) {
            (Int(a), Int(b)) => a.merge_front(b, from_extra),
            (Float(a), Float(b)) => a.merge_front(b, from_extra),
            (Bool(a), Bool(b)) => a.merge_front(b, from_extra),
            (Str(a), Str(b)) => a.merge_front(b, from_extra),
            (Mixed(a), Mixed(b)) => a.merge_front(b, from_extra),
            _ => {
                // representation mismatch: merge the values and re-type
                let extra: Vec<Value> = extra.iter_values().collect();
                let mut values: Vec<Value> = extra.iter().cloned().chain(self.iter_values()).collect();
                merge_front(&mut values, extra.len(), &extra, from_extra);
                *self = ColumnData::from_values(values);
                return;
            }
        }
        self.bytes += extra.bytes;
    }

    /// Append all cells of `other` by reference (bulk slice extension
    /// when representations match). One copy — unlike cloning `other`
    /// first and handing it to [`ColumnData::append_owned`], which pays
    /// a second copy when the source stays alive (e.g. the ingest path
    /// retaining the batch as the table's last delta).
    pub fn append_from(&mut self, other: &ColumnData) {
        use ColumnBuf::*;
        match (&mut self.buf, &other.buf) {
            (Int(a), Int(b)) => a.extend_from_slice(b),
            (Float(a), Float(b)) => a.extend_from_slice(b),
            (Bool(a), Bool(b)) => a.extend_from_slice(b),
            (Str(a), Str(b)) => a.extend_from_slice(b),
            (Mixed(a), Mixed(b)) => a.extend_from_slice(b),
            _ => {
                // representation mismatch: push cell-wise (push
                // maintains the byte accounting itself)
                for i in 0..other.len() {
                    self.push(other.value(i));
                }
                return;
            }
        }
        self.bytes += other.bytes;
    }

    /// Append all cells of `other` (bulk when representations match).
    pub fn append_owned(&mut self, other: ColumnData) {
        use ColumnBuf::*;
        let ColumnData { buf: obuf, bytes: obytes } = other;
        match (&mut self.buf, obuf) {
            (Int(a), Int(b)) => {
                a.append(b);
                self.bytes += obytes;
            }
            (Float(a), Float(b)) => {
                a.append(b);
                self.bytes += obytes;
            }
            (Bool(a), Bool(b)) => {
                a.append(b);
                self.bytes += obytes;
            }
            (Str(a), Str(b)) => {
                a.append(b);
                self.bytes += obytes;
            }
            (Mixed(a), Mixed(b)) => {
                a.append(b);
                self.bytes += obytes;
            }
            (_, obuf) => {
                // representation mismatch: push cell-wise (push maintains
                // the byte accounting itself)
                let other = ColumnData { buf: obuf, bytes: obytes };
                for i in 0..other.len() {
                    self.push(other.value(i));
                }
            }
        }
    }

    /// Iterate all cells as materialised values.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Consume into owned values (moves strings out instead of cloning).
    pub fn into_values(self) -> Vec<Value> {
        match self.buf {
            ColumnBuf::Int(v) => {
                v.into_vec().into_iter().map(|x| x.map(Value::Int).unwrap_or(Value::Null)).collect()
            }
            ColumnBuf::Float(v) => {
                v.into_vec().into_iter().map(|x| x.map(Value::Float).unwrap_or(Value::Null)).collect()
            }
            ColumnBuf::Bool(v) => {
                v.into_vec().into_iter().map(|x| x.map(Value::Bool).unwrap_or(Value::Null)).collect()
            }
            ColumnBuf::Str(v) => {
                v.into_vec().into_iter().map(|x| x.map(Value::Str).unwrap_or(Value::Null)).collect()
            }
            ColumnBuf::Mixed(v) => v.into_vec(),
        }
    }
}

impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.eq_at(i, other, i))
    }
}

/// A borrowed cell: the non-owning counterpart of [`Value`].
#[derive(Clone, Copy)]
enum CellRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

/// [`Value::total_cmp`] over borrowed cells: NULL < Bool < numbers <
/// Str; integers compare exactly, mixed numerics as f64.
fn cmp_cells(a: CellRef<'_>, b: CellRef<'_>) -> Ordering {
    fn rank(c: &CellRef<'_>) -> u8 {
        match c {
            CellRef::Null => 0,
            CellRef::Bool(_) => 1,
            CellRef::Int(_) | CellRef::Float(_) => 2,
            CellRef::Str(_) => 3,
        }
    }
    match rank(&a).cmp(&rank(&b)) {
        Ordering::Equal => match (a, b) {
            (CellRef::Null, CellRef::Null) => Ordering::Equal,
            (CellRef::Bool(x), CellRef::Bool(y)) => x.cmp(&y),
            (CellRef::Int(x), CellRef::Int(y)) => x.cmp(&y),
            (CellRef::Str(x), CellRef::Str(y)) => x.cmp(y),
            (a, b) => {
                let x = match a {
                    CellRef::Int(v) => v as f64,
                    CellRef::Float(v) => v,
                    _ => unreachable!("equal rank implies numeric"),
                };
                let y = match b {
                    CellRef::Int(v) => v as f64,
                    CellRef::Float(v) => v,
                    _ => unreachable!("equal rank implies numeric"),
                };
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
        },
        ord => ord,
    }
}

/// [`GroupKey`] over a borrowed cell: equal exactly when the owned keys
/// are, and hashed as they are (the same variants in the same order;
/// `&str` hashes as `String` does).
#[derive(PartialEq, Eq, Hash)]
enum KeyRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(&'a str),
}

impl<'a> KeyRef<'a> {
    fn of(cell: CellRef<'a>) -> Self {
        match cell {
            CellRef::Null => KeyRef::Null,
            CellRef::Bool(b) => KeyRef::Bool(b),
            CellRef::Int(x) => KeyRef::Int(x),
            CellRef::Float(x) => match float_group_key(x) {
                GroupKey::Int(x) => KeyRef::Int(x),
                GroupKey::Float(bits) => KeyRef::Float(bits),
                _ => unreachable!("a float keys as Int or Float"),
            },
            CellRef::Str(s) => KeyRef::Str(s),
        }
    }
}

/// The cells (rows) of a column, or of several joined, numbered by
/// group: see [`ColumnData::dense_ids`]. Groups are numbered in order of
/// first appearance, so the row where `ids[row]` first reaches a new
/// value is that group's first row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseIds {
    /// `ids[row]`: the group of row `row`.
    ids: Vec<u32>,
    /// `counts[group]`: how many rows the group holds.
    counts: Vec<u32>,
}

impl DenseIds {
    /// `n` rows in one group (none when `n` is 0).
    pub fn one_group(n: usize) -> Self {
        DenseIds { ids: vec![0; n], counts: if n == 0 { Vec::new() } else { vec![n as u32] } }
    }

    /// `ids()[row]`: the group of row `row`.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// `counts()[group]`: how many rows the group holds.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number `n` rows by the hashable key of each.
    fn number<K: Hash + Eq>(n: usize, mut key: impl FnMut(usize) -> K) -> Self {
        let mut slots: FxHashMap<K, u32> = FxHashMap::default();
        slots.reserve(n);
        let mut out = DenseIds::with_capacity(n);
        for i in 0..n {
            let next = out.counts.len() as u32;
            let id = *slots.entry(key(i)).or_insert(next);
            out.push(id);
        }
        out
    }

    /// Room for `n` rows in as many groups: no buffer grows.
    fn with_capacity(n: usize) -> Self {
        DenseIds { ids: Vec::with_capacity(n), counts: Vec::with_capacity(n) }
    }

    /// Append a row of group `id`, which is at most one past the last.
    fn push(&mut self, id: u32) {
        if id as usize == self.counts.len() {
            self.counts.push(0);
        }
        self.counts[id as usize] += 1;
        self.ids.push(id);
    }

    /// How many groups there are.
    pub fn groups(&self) -> usize {
        self.counts.len()
    }

    /// How many groups hold exactly one row.
    pub fn singletons(&self) -> usize {
        self.counts.iter().filter(|&&c| c == 1).count()
    }

    /// The groups of the row-wise pairs `(self.ids[row],
    /// other.ids[row])`: rows share a joint id exactly when they share
    /// both ids.
    pub fn joint(&self, other: &DenseIds) -> DenseIds {
        debug_assert_eq!(self.ids.len(), other.ids.len());
        DenseIds::number(self.ids.len(), |i| (self.ids[i] as u64) << 32 | other.ids[i] as u64)
    }
}

/// Grouping key for a float, consistent with [`Value::group_key`]
/// (integral floats fold onto integer keys; -0.0 normalised).
fn float_group_key(v: f64) -> GroupKey {
    let v = if v == 0.0 { 0.0 } else { v };
    if v.fract() == 0.0 && v.abs() < (i64::MAX as f64) {
        GroupKey::Int(v as i64)
    } else {
        GroupKey::Float(v.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_push_and_value_roundtrip() {
        let mut c = ColumnData::empty(DataType::Integer);
        c.push(Value::Int(1));
        c.push(Value::Null);
        c.push(Value::Int(3));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(1));
        assert!(c.is_null(1));
        assert_eq!(c.as_f64(2), Some(3.0));
        assert!(c.int_slice().is_some());
    }

    #[test]
    fn bytes_accounting_tracks_mutations() {
        let mut c = ColumnData::empty(DataType::Text);
        c.push(Value::Str("abc".into())); // 3 + 4
        c.push(Value::Null); // 1
        assert_eq!(c.bytes(), 8);
        c.set(0, Value::Str("a".into())); // 1 + 4
        assert_eq!(c.bytes(), 6);
        c.truncate(1);
        assert_eq!(c.bytes(), 5);
    }

    #[test]
    fn retypes_all_null_buffer() {
        let mut c = ColumnData::empty(DataType::Integer);
        c.push(Value::Null);
        c.push(Value::Str("x".into()));
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Str("x".into()));
        assert!(c.data_type() == Some(DataType::Text));
    }

    #[test]
    fn mixing_types_promotes_exactly() {
        let mut c = ColumnData::empty(DataType::Integer);
        c.push(Value::Int(3));
        c.push(Value::Float(2.5));
        // exact values preserved, not coerced
        assert_eq!(c.value(0), Value::Int(3));
        assert_eq!(c.value(1), Value::Float(2.5));
        assert_eq!(c.bytes(), 16);
    }

    #[test]
    fn gather_filter_and_append() {
        let c = ColumnData::from_values(vec![
            Value::Int(0),
            Value::Int(1),
            Value::Int(2),
            Value::Null,
        ]);
        let g = c.gather(&[3, 1]);
        assert_eq!(g.value(0), Value::Null);
        assert_eq!(g.value(1), Value::Int(1));
        assert_eq!(g.bytes(), 9);
        let f = c.filter(&[true, false, true, false]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1), Value::Int(2));
        let mut a = c.clone();
        a.append_owned(f);
        assert_eq!(a.len(), 6);
        assert_eq!(a.bytes(), c.bytes() + 16);
    }

    #[test]
    fn cross_type_comparison_matches_value_semantics() {
        let ints = ColumnData::from_values(vec![Value::Int(3)]);
        let floats = ColumnData::from_values(vec![Value::Float(3.0), Value::Float(2.5)]);
        assert!(ints.eq_at(0, &floats, 0));
        assert_eq!(ints.cmp_at(0, &floats, 1), Ordering::Greater);
        // NULLs sort first and equal each other, as in Value::total_cmp
        let nulls = ColumnData::from_values(vec![Value::Null]);
        assert_eq!(nulls.cmp_at(0, &ints, 0), Ordering::Less);
        assert!(nulls.eq_at(0, &nulls, 0));
    }

    #[test]
    fn group_keys_fold_like_values() {
        let c = ColumnData::from_values(vec![Value::Float(2.0), Value::Float(2.5)]);
        assert_eq!(c.group_key_at(0), Value::Int(2).group_key());
        assert_eq!(c.group_key_at(1), Value::Float(2.5).group_key());
    }

    #[test]
    fn numeric_or_null_detection() {
        assert!(ColumnData::from_values(vec![Value::Int(1), Value::Null]).all_numeric_or_null());
        assert!(!ColumnData::from_values(vec![Value::Str("x".into())]).all_numeric_or_null());
        assert!(ColumnData::empty(DataType::Text).all_numeric_or_null());
        let mixed = ColumnData::from_values(vec![Value::Int(1), Value::Str("x".into())]);
        assert!(!mixed.all_numeric_or_null());
    }

    #[test]
    fn skip_front_drops_prefix() {
        let mut c = ColumnData::from_values(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        c.skip_front(2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.value(0), Value::Int(3));
        assert_eq!(c.bytes(), 8);
    }

    #[test]
    fn a_dropped_front_is_reused_before_the_buffer_grows() {
        let ints = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
        let mut c = ColumnData::from_values(ints(&[1, 2, 3, 4]));
        c.push(Value::Null);
        let ColumnBuf::Int(cells) = &c.buf else { panic!("an integer column") };
        let capacity = cells.vec.capacity();
        c.skip_front(3);
        assert_eq!(c.iter_values().collect::<Vec<_>>(), vec![Value::Int(4), Value::Null]);
        assert_eq!(c.bytes(), 9, "the size accounting counts the NULL");
        // appends fill the capacity first, then reclaim the dead front
        for x in 5..3 + capacity as i64 {
            c.push(Value::Int(x));
        }
        let ColumnBuf::Int(cells) = &c.buf else { panic!("an integer column") };
        assert_eq!(cells.vec.capacity(), capacity, "the dead front made room");
        assert_eq!(c.len(), capacity);
        assert_eq!(c.value(0), Value::Int(4));
        assert_eq!(c.bytes(), 9 + 8 * (capacity - 2));
        c.reclaim();
        assert_eq!(c.gather(&[0, 1, 2]).iter_values().collect::<Vec<_>>(), vec![
            Value::Int(4),
            Value::Null,
            Value::Int(5)
        ]);
    }

    #[test]
    fn merge_in_places_extra_cells_through_the_dropped_front() {
        let ints = |xs: &[i64]| ColumnData::from_values(xs.iter().map(|&x| Value::Int(x)).collect());
        let flags = [true, false, false, true, false];
        // drop 1, 2, 3; merge 10 and 20 in among 4, 5, 6
        let mut c = ints(&[1, 2, 3, 4, 5, 6]);
        c.merge_in(3, &ints(&[10, 20]), &flags);
        assert_eq!(c, ints(&[10, 4, 5, 20, 6]));
        assert_eq!(c.bytes(), 40);
        // a float among integers re-types the merged column
        let mut c = ints(&[1, 2, 3, 4, 5, 6]);
        let extra = ColumnData::from_values(vec![Value::Float(0.5), Value::Int(20)]);
        c.merge_in(3, &extra, &flags);
        let merged = [Value::Float(0.5), Value::Int(4), Value::Int(5), Value::Int(20), Value::Int(6)];
        assert_eq!(c.iter_values().collect::<Vec<_>>(), merged);
        // every old cell dropped: the merge is the extra cells alone
        let mut c = ints(&[1, 2]);
        c.merge_in(2, &ints(&[7]), &[true]);
        assert_eq!(c, ints(&[7]));
    }

    /// Number rows by owned `GroupKey`s: what `dense_ids` must equal.
    fn ids_by_group_key(col: &ColumnData) -> DenseIds {
        let mut slots = std::collections::HashMap::new();
        let mut out = DenseIds { ids: Vec::new(), counts: Vec::new() };
        for i in 0..col.len() {
            let next = slots.len() as u32;
            out.push(*slots.entry(col.group_key_at(i)).or_insert(next));
        }
        out
    }

    #[test]
    fn dense_ids_share_an_id_exactly_when_group_keys_are_equal() {
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        let columns = [
            vec![Value::Int(2), Value::Null, Value::Int(-1), Value::Int(2), Value::Null],
            vec![
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Float(2.0),
                Value::Float(nan),
                Value::Float(other_nan),
                Value::Float(nan),
                Value::Null,
                Value::Float(2.5),
            ],
            vec![Value::Str("a".into()), Value::Null, Value::Str("NULL".into()), Value::Str("a".into())],
            vec![Value::Bool(true), Value::Null, Value::Bool(false), Value::Bool(true)],
            vec![
                Value::Int(2),
                Value::Float(2.0),
                Value::Str("2".into()),
                Value::Float(-0.0),
                Value::Int(0),
                Value::Bool(true),
                Value::Null,
                Value::Float(nan),
                Value::Float(nan),
                Value::Float(1e300),
            ],
        ];
        for values in columns {
            let col = ColumnData::from_values(values);
            assert_eq!(col.dense_ids(), ids_by_group_key(&col), "{col:?}");
        }
        let ids = ColumnData::from_values(vec![Value::Int(2), Value::Float(2.0), Value::Float(-0.0), Value::Int(0)])
            .dense_ids();
        assert_eq!((ids.ids, ids.counts), (vec![0, 0, 1, 1], vec![2, 2]));
    }

    #[test]
    fn joint_ids_number_row_pairs() {
        let pairs_by_hash = |a: &DenseIds, b: &DenseIds| {
            let mut slots = std::collections::HashMap::new();
            let mut out = DenseIds { ids: Vec::new(), counts: Vec::new() };
            for (&x, &y) in a.ids.iter().zip(&b.ids) {
                let next = slots.len() as u32;
                out.push(*slots.entry((x, y)).or_insert(next));
            }
            out
        };
        for (n, modulus) in [(0, 1), (40, 3), (3000, 3), (3000, 3000)] {
            let a = ColumnData::from_values((0..n).map(|i| Value::Int(i % modulus)).collect()).dense_ids();
            let b = ColumnData::from_values((0..n).map(|i| Value::Int((i * 7 + 1) % 3001)).collect())
                .dense_ids();
            let joint = a.joint(&b);
            assert_eq!(joint, pairs_by_hash(&a, &b));
            assert_eq!(joint.counts.iter().sum::<u32>() as i64, n);
        }
    }

    #[test]
    fn relabeled_equals_a_set_per_labelled_cell() {
        let columns = [
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Float(0.5), Value::Float(1.5), Value::Null],
            vec![Value::Str("a".into()), Value::Null, Value::Str("bcd".into())],
            vec![Value::Bool(true), Value::Int(2), Value::Null],
        ];
        let kind = |c: &ColumnData| match &c.buf {
            ColumnBuf::Int(_) => "int",
            ColumnBuf::Float(_) => "float",
            ColumnBuf::Bool(_) => "bool",
            ColumnBuf::Str(_) => "str",
            ColumnBuf::Mixed(_) => "mixed",
        };
        for values in columns {
            let col = ColumnData::from_values(values);
            for labelled in [[false, false, false], [false, true, false], [true, true, true]] {
                let label = |i: usize| labelled[i].then_some("[1,3]");
                let mut expected = col.clone();
                for i in (0..col.len()).filter(|&i| labelled[i]) {
                    expected.set(i, Value::Str("[1,3]".into()));
                }
                let got = col.relabeled(label);
                assert_eq!(got, expected);
                assert_eq!((kind(&got), got.bytes()), (kind(&expected), expected.bytes()));
            }
        }
    }
}
