//! The anonymiser against its reference: generated frames run through
//! `detect_qids`, `mondrian` and `mondrian_l_diverse` and through the
//! pre-dense-id implementation kept verbatim in `reference/`. Reports
//! and errors must be equal, and released frames equal cell by cell
//! (exact variants and bits, not `Value`'s numeric equality), column
//! buffer kind by kind and byte count by byte count.

mod reference;

use proptest::prelude::*;

use paradise_anon::{detect_qids, mondrian, mondrian_l_diverse, AnonResult, QidConfig};
use paradise_engine::{ColumnData, Frame, Schema, Value};

/// The cells a generated column draws from; NULL, when allowed, last.
/// Small palettes make heavy ties; `2` beside `2.0` and `-0.0` beside
/// `0.0` are one group but print differently.
fn palette(kind: usize) -> Vec<Value> {
    let f = Value::Float;
    let s = |x: &str| Value::Str(x.to_string());
    let mut cells = match kind {
        0 => [-1, 0, 1, 2, 3, 5, 8].map(Value::Int).to_vec(),
        1 => (0..30).map(Value::Int).collect(),
        2 => vec![f(-0.0), f(0.0), f(0.5), f(2.0), f(2.5), f(-1.5), f(1e15)],
        3 => vec![s("a"), s("b"), s("NULL"), s("2"), s("a b"), s("")],
        4 => vec![Value::Bool(true), Value::Bool(false)],
        // mixed: every runtime type
        5 => vec![
            Value::Int(2),
            f(2.0),
            f(-0.0),
            Value::Int(0),
            s("2"),
            Value::Bool(true),
            f(0.5),
        ],
        // mixed, numbers only: a numeric QID on the exact buffer
        _ => vec![
            Value::Int(2),
            f(2.0),
            f(-0.0),
            Value::Int(0),
            f(0.5),
            Value::Int(-3),
            f(7.25),
        ],
    };
    cells.push(Value::Null);
    cells
}

/// One generated column: its palette, whether it holds NULLs, and a
/// palette pick per row.
type ColumnSpec = (usize, bool, Vec<u8>);

fn arb_columns() -> impl Strategy<Value = Vec<ColumnSpec>> {
    (1usize..40).prop_flat_map(|rows| {
        proptest::collection::vec(
            (
                0usize..7,
                any::<bool>(),
                proptest::collection::vec(any::<u8>(), rows..rows + 1),
            ),
            2..6,
        )
    })
}

/// The frame of `columns`, with a NaN at row `nan` of column `nan_in`
/// when asked.
fn frame(columns: &[ColumnSpec], nan: Option<(usize, u8)>) -> Frame {
    let names: Vec<String> = (0..columns.len()).map(|c| format!("c{c}")).collect();
    let schema = Schema::from_pairs(
        &names
            .iter()
            .map(|n| (n.as_str(), paradise_engine::DataType::Integer))
            .collect::<Vec<_>>(),
    );
    let data = columns
        .iter()
        .enumerate()
        .map(|(c, (kind, nulls, picks))| {
            let cells = palette(*kind);
            let usable = if *nulls { cells.len() } else { cells.len() - 1 };
            let mut values: Vec<Value> = picks
                .iter()
                .map(|&p| cells[p as usize % usable].clone())
                .collect();
            if let Some((column, row)) = nan {
                if column == c {
                    let row = row as usize % values.len();
                    values[row] = Value::Float(f64::NAN);
                }
            }
            ColumnData::from_values(values)
        })
        .collect();
    Frame::from_columns(schema, data).unwrap()
}

/// A column's buffer kind, as far as the public API shows it.
fn kind(col: &ColumnData) -> &'static str {
    if col.int_slice().is_some() {
        "int"
    } else if col.float_slice().is_some() {
        "float"
    } else if col.bool_slice().is_some() {
        "bool"
    } else if col.str_slice().is_some() {
        "str"
    } else {
        "mixed"
    }
}

/// Each column of a frame as its kind, its byte count and its cells'
/// `Debug` (variant and exact value: `Int(2)` ≠ `Float(2.0)`).
fn exact(frame: &Frame) -> Vec<(&'static str, usize, Vec<String>)> {
    (0..frame.schema.len())
        .map(|c| {
            let col = frame.column(c);
            (
                kind(col),
                col.bytes(),
                col.iter_values().map(|v| format!("{v:?}")).collect(),
            )
        })
        .collect()
}

fn same_release(
    what: &str,
    got: AnonResult<Frame>,
    want: AnonResult<Frame>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => prop_assert_eq!(exact(&got), exact(&want), "{}", what),
        (Err(got), Err(want)) => prop_assert_eq!(got, want, "{}", what),
        (got, want) => prop_assert!(false, "{what}: {got:?} against the reference's {want:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn anonymiser_matches_the_reference(
        columns in arb_columns(),
        picks in proptest::collection::vec(0usize..64, 1..4),
        k in 1usize..6,
        l in 1usize..4,
        sensitive in 0usize..64,
        nan in proptest::option::of(any::<u8>()),
        thresholds in (0usize..3, 0usize..4, 1usize..5),
    ) {
        let width = columns.len();
        // the QIDs: 1–3 columns, now and then one out of range
        let qids: Vec<usize> =
            picks.iter().map(|&p| if p == 63 { width } else { p % width }).collect();
        let nan = nan.filter(|r| r % 4 == 0).map(|row| (qids[0], row));
        let frame = frame(&columns, nan);
        let sensitive = sensitive % width;

        let (identifier, qid, max_combination) = thresholds;
        let config = QidConfig {
            identifier_threshold: [0.95, 0.6, 1.0][identifier],
            qid_threshold: [0.5, 0.2, 0.0, 0.9][qid],
            max_combination,
        };
        for config in [QidConfig::default(), config] {
            prop_assert_eq!(detect_qids(&frame, &config), reference::detect_qids(&frame, &config));
        }
        same_release("mondrian", mondrian(&frame, &qids, k), reference::mondrian(&frame, &qids, k))?;
        same_release(
            "mondrian_l_diverse",
            mondrian_l_diverse(&frame, &qids, sensitive, k, l),
            reference::mondrian_l_diverse(&frame, &qids, sensitive, k, l),
        )?;
    }
}
