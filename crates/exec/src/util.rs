//! Execution utilities: key evaluation, row comparison, predicate
//! application.

use std::cmp::Ordering;

use hylite_common::{Chunk, ColumnVector, Result};
use hylite_expr::ScalarExpr;

/// Evaluate `exprs` over a chunk: one key column per expression.
pub fn key_columns(exprs: &[ScalarExpr], chunk: &Chunk) -> Result<Vec<ColumnVector>> {
    exprs.iter().map(|e| e.eval(chunk)).collect()
}

/// Compare rows `a` and `b` of `col` in [`Value::sort_cmp`] order: NULLs
/// first, NaN after every other DOUBLE.
///
/// [`Value::sort_cmp`]: hylite_common::Value::sort_cmp
pub fn cmp_at(col: &ColumnVector, a: usize, b: usize) -> Ordering {
    match (col.is_valid(a), col.is_valid(b)) {
        (true, true) => {}
        (va, vb) => return va.cmp(&vb),
    }
    match col {
        ColumnVector::Int64 { data, .. } => data[a].cmp(&data[b]),
        ColumnVector::Float64 { data, .. } => {
            let (x, y) = (data[a], data[b]);
            x.partial_cmp(&y)
                .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
        }
        ColumnVector::Bool { data, .. } => data[a].cmp(&data[b]),
        ColumnVector::Varchar { data, .. } => data[a].cmp(&data[b]),
    }
}

/// Apply a boolean predicate to a chunk, returning the surviving rows.
pub fn apply_predicate(chunk: &Chunk, predicate: &ScalarExpr) -> Result<Chunk> {
    let col = predicate.eval(chunk)?;
    let sel = col.to_selection()?;
    Ok(chunk.filter(&sel))
}

/// Total rows across chunks.
pub fn total_rows(chunks: &[Chunk]) -> usize {
    chunks.iter().map(Chunk::len).sum()
}

/// Total heap bytes across chunks — the memory-budget charge for a
/// materialized intermediate. Columns shared between chunks via `Arc`
/// (e.g. working-table clones) are counted per reference, so this is an
/// upper bound on the true live set.
pub fn heap_bytes(chunks: &[Chunk]) -> u64 {
    chunks.iter().map(Chunk::heap_bytes).sum::<usize>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{DataType, Value};

    #[test]
    fn predicate_filters() {
        let chunk = Chunk::new(vec![ColumnVector::from_i64(vec![1, 5, 3])]);
        let pred = ScalarExpr::binary(
            hylite_expr::BinaryOp::Gt,
            ScalarExpr::column(0, DataType::Int64),
            ScalarExpr::literal(2i64),
        )
        .unwrap();
        let out = apply_predicate(&chunk, &pred).unwrap();
        assert_eq!(out.column(0).as_i64().unwrap(), &[5, 3]);
    }

    #[test]
    fn cmp_at_matches_sort_cmp() {
        let cols = [
            ColumnVector::from_values(
                DataType::Float64,
                &[
                    Value::Null,
                    Value::Float(f64::NAN),
                    Value::Float(-0.0),
                    Value::Float(0.0),
                    Value::Float(-1.0),
                ],
            )
            .unwrap(),
            ColumnVector::from_values(
                DataType::Varchar,
                &[
                    Value::from("b"),
                    Value::Null,
                    Value::from("a"),
                    Value::from(""),
                    Value::from("ab"),
                ],
            )
            .unwrap(),
        ];
        for col in &cols {
            for a in 0..col.len() {
                for b in 0..col.len() {
                    assert_eq!(cmp_at(col, a, b), col.value(a).sort_cmp(&col.value(b)));
                }
            }
        }
    }
}
