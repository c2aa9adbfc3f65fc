//! Hash aggregation and DISTINCT over the typed key table.
//!
//! A grouped aggregate keeps one [`KeyTable`] for its whole input: each
//! chunk's keys are encoded and mapped to dense group ids, then every
//! aggregate folds its argument column into per-group states by id.
//! The ungrouped aggregate folds each chunk with the vectorized
//! [`AggregateState::update_column`] and merges the partial states.

use hylite_common::governor::Governor;
#[cfg(test)]
use hylite_common::Value;
use hylite_common::{Chunk, ColumnVector, DataType, Result};
use hylite_expr::AggregateState;
use hylite_expr::ScalarExpr;
use hylite_planner::logical::AggExpr;
use rayon::prelude::*;

use crate::keys::{KeyBatch, KeyTable};
use crate::util::{cmp_at, key_columns};

/// Execute a grouped aggregation. Output columns: group keys in order,
/// then one column per aggregate, one row per group sorted by key. With
/// no group keys the result is a single row (aggregates over the whole
/// input, even when empty).
///
/// Every chunk starts with a governor check, and the key table and the
/// group states are charged against the statement's memory budget as
/// they grow (released when the aggregation returns).
pub fn aggregate(
    chunks: &[Chunk],
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
    output_types: &[DataType],
    governor: &Governor,
) -> Result<Vec<Chunk>> {
    if group_exprs.is_empty() {
        return aggregate_all(chunks, aggregates, output_types, governor);
    }
    let key_types: Vec<DataType> = group_exprs.iter().map(ScalarExpr::data_type).collect();
    let mut table = KeyTable::new(&key_types);
    let mut states: Vec<Vec<AggregateState>> = vec![Vec::new(); aggregates.len()];
    let state_bytes = (std::mem::size_of::<AggregateState>() * aggregates.len()) as u64;
    let mut charge = governor.reserve_scoped(0)?;
    let mut groups = Vec::new();
    for chunk in chunks {
        governor.check()?;
        let key_cols = key_columns(group_exprs, chunk)?;
        let refs: Vec<&ColumnVector> = key_cols.iter().collect();
        let batch = KeyBatch::encode(0..chunk.len(), &refs, &key_types, false)?;
        table.insert_batch(&batch, &mut groups)?;
        for (agg, states) in aggregates.iter().zip(&mut states) {
            states.resize(table.len(), agg.func.init());
            let arg = agg.arg.as_ref().map(|e| e.eval(chunk)).transpose()?;
            AggregateState::update_grouped(states, &groups, arg.as_ref())?;
        }
        charge.resize(table.heap_bytes() + table.len() as u64 * state_bytes)?;
    }
    // Deterministic output order: groups sorted by key.
    let keys: Vec<ColumnVector> = (0..group_exprs.len())
        .map(|c| table.column(c))
        .collect::<Result<_>>()?;
    let mut order: Vec<usize> = (0..table.len()).collect();
    // Keys are distinct, so an unstable sort is deterministic.
    order.sort_unstable_by(|&a, &b| {
        keys.iter()
            .map(|col| cmp_at(col, a, b))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut cols = Vec::with_capacity(output_types.len());
    for (col, &t) in keys.iter().zip(output_types) {
        let col = col.take(&order);
        cols.push(if col.data_type() == t {
            col
        } else {
            col.cast_to(t)?
        });
    }
    for (a, states) in states.iter().enumerate() {
        let values: Vec<_> = order.iter().map(|&g| &states[g]).collect();
        cols.push(finalize(&values, output_types[group_exprs.len() + a])?);
    }
    Ok(vec![Chunk::new(cols)])
}

/// The ungrouped aggregate: one vectorized partial state per chunk,
/// merged once.
fn aggregate_all(
    chunks: &[Chunk],
    aggregates: &[AggExpr],
    output_types: &[DataType],
    governor: &Governor,
) -> Result<Vec<Chunk>> {
    let init = || -> Vec<AggregateState> { aggregates.iter().map(|a| a.func.init()).collect() };
    let partials: Vec<Result<Vec<AggregateState>>> = chunks
        .par_iter()
        .map(|chunk| {
            governor.check()?;
            let mut states = init();
            for (agg, state) in aggregates.iter().zip(&mut states) {
                match &agg.arg {
                    Some(e) => state.update_column(&e.eval(chunk)?)?,
                    None => state.update_count_star(chunk.len() as i64),
                }
            }
            Ok(states)
        })
        .collect();
    let mut merged = init();
    for partial in partials {
        for (a, b) in merged.iter_mut().zip(&partial?) {
            a.merge(b)?;
        }
    }
    let cols = merged
        .iter()
        .zip(output_types)
        .map(|(state, &t)| finalize(&[state], t))
        .collect::<Result<_>>()?;
    Ok(vec![Chunk::new(cols)])
}

/// Finalize one aggregate's states into a column of type `target`.
fn finalize(states: &[&AggregateState], target: DataType) -> Result<ColumnVector> {
    let mut col = ColumnVector::empty(target);
    for state in states {
        let v = state.finalize();
        let v = if v.is_null() { v } else { v.cast_to(target)? };
        col.push_value(&v)?;
    }
    Ok(col)
}

/// DISTINCT: keep the first occurrence of every row. Checks the governor
/// once per input chunk and charges the key table against the
/// statement's memory budget.
pub fn distinct(chunks: &[Chunk], types: &[DataType], governor: &Governor) -> Result<Vec<Chunk>> {
    let mut table = KeyTable::new(types);
    let mut charge = governor.reserve_scoped(0)?;
    let mut out = Vec::new();
    for chunk in chunks {
        governor.check()?;
        let fresh = table.retain_new(chunk)?;
        charge.resize(table.heap_bytes())?;
        if !fresh.is_empty() {
            out.push(fresh);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_expr::AggregateFunction;

    fn data() -> Vec<Chunk> {
        vec![Chunk::new(vec![
            ColumnVector::from_i64(vec![1, 2, 1, 2, 1]),
            ColumnVector::from_f64(vec![10.0, 20.0, 30.0, 40.0, 50.0]),
        ])]
    }

    fn agg(func: AggregateFunction, arg: Option<ScalarExpr>) -> AggExpr {
        AggExpr {
            func,
            arg,
            name: func.name().into(),
        }
    }

    #[test]
    fn grouped_sum_and_count() {
        let out = aggregate(
            &data(),
            &[ScalarExpr::column(0, DataType::Int64)],
            &[
                agg(
                    AggregateFunction::Sum,
                    Some(ScalarExpr::column(1, DataType::Float64)),
                ),
                agg(AggregateFunction::CountStar, None),
            ],
            &[DataType::Int64, DataType::Float64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap();
        let c = &out[0];
        assert_eq!(c.len(), 2);
        // Sorted by key: group 1 then group 2.
        assert_eq!(c.column(0).as_i64().unwrap(), &[1, 2]);
        assert_eq!(c.column(1).as_f64().unwrap(), &[90.0, 60.0]);
        assert_eq!(c.column(2).as_i64().unwrap(), &[3, 2]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let out = aggregate(
            &[],
            &[],
            &[
                agg(AggregateFunction::CountStar, None),
                agg(
                    AggregateFunction::Sum,
                    Some(ScalarExpr::column(0, DataType::Int64)),
                ),
            ],
            &[DataType::Int64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap();
        let c = &out[0];
        assert_eq!(c.len(), 1);
        assert_eq!(c.column(0).value(0), Value::Int(0));
        assert!(c.column(1).value(0).is_null(), "SUM of nothing is NULL");
    }

    #[test]
    fn grouped_over_empty_input_is_empty() {
        let out = aggregate(
            &[],
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(AggregateFunction::CountStar, None)],
            &[DataType::Int64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap();
        assert_eq!(out[0].len(), 0);
    }

    #[test]
    fn parallel_chunks_merge() {
        let big = data()[0].clone();
        let chunks: Vec<Chunk> = vec![big.slice(0, 2), big.slice(2, 2), big.slice(4, 1)];
        let whole = aggregate(
            &data(),
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(
                AggregateFunction::Avg,
                Some(ScalarExpr::column(1, DataType::Float64)),
            )],
            &[DataType::Int64, DataType::Float64],
            &Governor::unlimited(),
        )
        .unwrap();
        let split = aggregate(
            &chunks,
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(
                AggregateFunction::Avg,
                Some(ScalarExpr::column(1, DataType::Float64)),
            )],
            &[DataType::Int64, DataType::Float64],
            &Governor::unlimited(),
        )
        .unwrap();
        assert_eq!(whole, split);
    }

    #[test]
    fn null_keys_form_one_group() {
        let mut key = ColumnVector::from_i64(vec![1]);
        key.push_null();
        key.push_null();
        let chunk = Chunk::new(vec![key]);
        let out = aggregate(
            &[chunk],
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(AggregateFunction::CountStar, None)],
            &[DataType::Int64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap();
        assert_eq!(out[0].len(), 2, "NULL group + value group");
        // NULL sorts first.
        assert!(out[0].column(0).value(0).is_null());
        assert_eq!(out[0].column(1).value(0), Value::Int(2));
    }

    #[test]
    fn distinct_dedups() {
        let chunk = Chunk::new(vec![ColumnVector::from_i64(vec![1, 2, 1, 3, 2])]);
        let out = distinct(&[chunk], &[DataType::Int64], &Governor::unlimited()).unwrap();
        assert_eq!(out[0].column(0).as_i64().unwrap(), &[1, 2, 3]);
    }
}
