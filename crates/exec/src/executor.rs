//! The plan interpreter.

use std::sync::Arc;

use hylite_common::{Chunk, Result};
use hylite_planner::LogicalPlan;
use rayon::prelude::*;

use crate::aggregate;
use crate::context::ExecContext;
use crate::join;
use crate::scan;
use crate::sort;

/// Executes bound, optimized logical plans against an [`ExecContext`].
pub struct Executor {
    /// The execution context (catalog handle, working tables, stats).
    pub ctx: ExecContext,
}

impl Executor {
    /// Executor over a context.
    pub fn new(ctx: ExecContext) -> Executor {
        Executor { ctx }
    }

    /// Execute a plan to a materialized chunk stream.
    ///
    /// Every (sub)plan execution is a governor check point: a cancelled,
    /// timed-out, or over-budget statement aborts before the node runs.
    /// When the statement has a memory budget, each node's materialized
    /// output is charged against it and released once the parent operator
    /// has produced its own output (the children's intermediates are dead
    /// by then) — see [`ExecContext::reserve_output`].
    ///
    /// When profiling is enabled on the context, every (sub)plan
    /// execution is additionally bracketed by a span recording output
    /// rows/chunks, wall time and an estimate of the materialized output
    /// size. Repeated executions of the same node (loop bodies) fold into
    /// one span — see [`hylite_common::telemetry::ProfileBuilder`].
    pub fn execute(&mut self, plan: &LogicalPlan) -> Result<Vec<Chunk>> {
        self.ctx.check_governor()?;
        let profiling = self.ctx.profiling();
        if profiling {
            self.ctx.profile_enter(plan.node_id(), plan.op_name());
        }
        let budgeted = self.ctx.governor().budget().limit() != u64::MAX;
        if budgeted {
            self.ctx.push_mem_frame();
        }
        let mut result = self.execute_node(plan);
        if budgeted {
            self.ctx.pop_mem_frame();
            if let Ok(chunks) = &result {
                let bytes = crate::util::heap_bytes(chunks);
                if let Err(e) = self.ctx.reserve_output(bytes) {
                    result = Err(e);
                }
            }
        }
        if profiling {
            match &result {
                Ok(chunks) => {
                    self.ctx.profile_mem(crate::util::heap_bytes(chunks));
                    self.ctx
                        .profile_exit(crate::util::total_rows(chunks) as u64, chunks.len() as u64);
                }
                Err(_) => self.ctx.profile_exit(0, 0),
            }
        }
        result
    }

    /// Single-operator dispatch (no profiling bookkeeping).
    fn execute_node(&mut self, plan: &LogicalPlan) -> Result<Vec<Chunk>> {
        match plan {
            LogicalPlan::TableScan {
                table,
                projection,
                filter,
                ..
            } => {
                let snapshot = self.ctx.snapshot(table)?;
                let governor = Arc::clone(self.ctx.governor());
                let (chunks, pruning) = scan::scan_pruned(
                    &snapshot,
                    projection.as_deref(),
                    filter.as_ref(),
                    &governor,
                )?;
                if self.ctx.profiling() {
                    self.ctx
                        .profile_note("blocks_scanned", pruning.blocks_scanned);
                    self.ctx
                        .profile_note("blocks_pruned", pruning.blocks_pruned);
                }
                {
                    let m = self.ctx.metrics();
                    m.counter("scan.blocks_scanned")
                        .add(pruning.blocks_scanned as u64);
                    m.counter("scan.blocks_pruned")
                        .add(pruning.blocks_pruned as u64);
                }
                Ok(chunks)
            }
            LogicalPlan::Values { schema, rows } => {
                let types = schema.types();
                Ok(vec![Chunk::from_rows(&types, rows)?])
            }
            LogicalPlan::SystemScan { view, schema } => {
                let rows = self.ctx.scan_system_view(*view);
                let types = schema.types();
                Ok(vec![Chunk::from_rows(&types, &rows)?])
            }
            LogicalPlan::Empty { .. } => Ok(vec![Chunk::zero_column(1)]),
            LogicalPlan::WorkingTable { name, .. } => {
                let rel = self.ctx.read_working(name)?;
                Ok(rel.as_ref().clone())
            }
            LogicalPlan::Filter { input, predicate } => {
                let chunks = self.execute(input)?;
                let out: Vec<Result<Chunk>> = chunks
                    .par_iter()
                    .map(|c| crate::util::apply_predicate(c, predicate))
                    .collect();
                out.into_iter()
                    .filter(|r| !matches!(r, Ok(c) if c.is_empty()))
                    .collect()
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let chunks = self.execute(input)?;
                let out: Vec<Result<Chunk>> = chunks
                    .par_iter()
                    .map(|c| {
                        let cols = exprs
                            .iter()
                            .map(|e| match e {
                                // Plain column references share the input
                                // column instead of copying it.
                                hylite_expr::ScalarExpr::Column { index, .. } => {
                                    Ok(c.column_arc(*index))
                                }
                                other => other.eval(c).map(Arc::new),
                            })
                            .collect::<Result<Vec<_>>>()?;
                        // Zero-column projection keeps the row count.
                        if cols.is_empty() {
                            Ok(Chunk::zero_column(c.len()))
                        } else {
                            Ok(Chunk::from_arc_columns(cols))
                        }
                    })
                    .collect();
                out.into_iter().collect()
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                ..
            } => {
                let l = self.execute(left)?;
                let r = self.execute(right)?;
                let governor = Arc::clone(self.ctx.governor());
                join::join(
                    &l,
                    &r,
                    *kind,
                    condition.as_ref(),
                    &left.schema().types(),
                    &right.schema().types(),
                    &governor,
                )
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                schema,
            } => {
                let chunks = self.execute(input)?;
                let governor = Arc::clone(self.ctx.governor());
                aggregate::aggregate(&chunks, group_exprs, aggregates, &schema.types(), &governor)
            }
            LogicalPlan::Sort { input, keys } => {
                let chunks = self.execute(input)?;
                sort::sort(&chunks, keys, &input.schema().types())
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let chunks = self.execute(input)?;
                Ok(sort::limit(chunks, *limit, *offset))
            }
            LogicalPlan::Union {
                inputs,
                all,
                schema,
            } => {
                let mut chunks = Vec::new();
                for i in inputs {
                    chunks.extend(self.execute(i)?);
                }
                if *all {
                    Ok(chunks)
                } else {
                    let governor = Arc::clone(self.ctx.governor());
                    aggregate::distinct(&chunks, &schema.types(), &governor)
                }
            }
            LogicalPlan::Distinct { input } => {
                let chunks = self.execute(input)?;
                let governor = Arc::clone(self.ctx.governor());
                aggregate::distinct(&chunks, &input.schema().types(), &governor)
            }
            LogicalPlan::RecursiveCte {
                name,
                init,
                step,
                all,
                ..
            } => self.exec_recursive_cte(name, init, step, *all),
            LogicalPlan::Iterate {
                init,
                step,
                stop,
                max_iterations,
                ..
            } => self.exec_iterate(init, step, stop, *max_iterations),
            LogicalPlan::KMeans {
                data,
                centers,
                lambda,
                max_iterations,
                ..
            } => self.exec_kmeans(data, centers, lambda.as_ref(), *max_iterations),
            LogicalPlan::KMeansAssign {
                data,
                centers,
                lambda,
                ..
            } => self.exec_kmeans_assign(data, centers, lambda.as_ref()),
            LogicalPlan::PageRank {
                edges,
                weighted,
                damping,
                epsilon,
                max_iterations,
                ..
            } => self.exec_pagerank(edges, *weighted, *damping, *epsilon, *max_iterations),
            LogicalPlan::NaiveBayesTrain {
                data,
                feature_names,
                schema,
            } => self.exec_nb_train(data, feature_names, &schema.types()),
            LogicalPlan::NaiveBayesPredict {
                model,
                data,
                feature_names,
                ..
            } => self.exec_nb_predict(model, data, feature_names),
            LogicalPlan::ClassStats {
                data,
                feature_names,
                schema,
            } => self.exec_class_stats(data, feature_names, &schema.types()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{DataType, Field, Schema, Value};
    use hylite_expr::{BinaryOp, ScalarExpr};
    use hylite_planner::logical::SortKey;
    use hylite_planner::JoinKind;
    use hylite_storage::Catalog;

    fn setup() -> (Arc<Catalog>, Arc<Schema>) {
        let catalog = Arc::new(Catalog::new());
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let t = catalog.create_table("t", schema.clone()).unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        t.write().insert_rows(&rows).unwrap();
        t.write().commit();
        (catalog, Arc::new(schema))
    }

    fn scan_plan(schema: &Arc<Schema>) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: Arc::clone(schema),
            projection: None,
            filter: None,
            schema: Arc::clone(schema),
        }
    }

    fn exec(catalog: &Arc<Catalog>, plan: &LogicalPlan) -> Vec<Chunk> {
        let mut e = Executor::new(ExecContext::new(Arc::clone(catalog)));
        e.execute(plan).unwrap()
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let (catalog, schema) = setup();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan_plan(&schema)),
                predicate: ScalarExpr::binary(
                    BinaryOp::Lt,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::literal(5i64),
                )
                .unwrap(),
            }),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::column(1, DataType::Float64),
                ScalarExpr::literal(2.0f64),
            )
            .unwrap()],
            schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Float64)])),
        };
        let out = exec(&catalog, &plan);
        let total = Chunk::concat(&[DataType::Float64], &out).unwrap();
        assert_eq!(
            total.column(0).as_f64().unwrap(),
            &[0.0, 2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn empty_produces_one_row() {
        let (catalog, _) = setup();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Empty {
                schema: Arc::new(Schema::empty()),
            }),
            exprs: vec![ScalarExpr::literal(42i64)],
            schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)])),
        };
        let out = exec(&catalog, &plan);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0].column(0).value(0), Value::Int(42));
    }

    #[test]
    fn sort_limit() {
        let (catalog, schema) = setup();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan_plan(&schema)),
                keys: vec![SortKey {
                    expr: ScalarExpr::column(0, DataType::Int64),
                    asc: false,
                }],
            }),
            limit: Some(3),
            offset: 1,
        };
        let out = exec(&catalog, &plan);
        let total = Chunk::concat(&schema.types(), &out).unwrap();
        assert_eq!(total.column(0).as_i64().unwrap(), &[98, 97, 96]);
    }

    #[test]
    fn self_join() {
        let (catalog, schema) = setup();
        let join_schema = Arc::new(schema.join(&schema));
        let plan = LogicalPlan::Join {
            left: Box::new(scan_plan(&schema)),
            right: Box::new(scan_plan(&schema)),
            kind: JoinKind::Inner,
            condition: Some(
                ScalarExpr::binary(
                    BinaryOp::Eq,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::column(2, DataType::Int64),
                )
                .unwrap(),
            ),
            schema: join_schema,
        };
        let out = exec(&catalog, &plan);
        assert_eq!(crate::util::total_rows(&out), 100);
    }

    #[test]
    fn iterate_paper_listing_1() {
        // ITERATE((SELECT 7), (SELECT x+7), (SELECT x WHERE x >= 100))
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: vec![vec![Value::Int(7)]],
        };
        let working = LogicalPlan::WorkingTable {
            name: "iterate".into(),
            schema: Arc::clone(&int_schema),
        };
        let step = LogicalPlan::Project {
            input: Box::new(working.clone()),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(7i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let stop = LogicalPlan::Filter {
            input: Box::new(working),
            predicate: ScalarExpr::binary(
                BinaryOp::GtEq,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(100i64),
            )
            .unwrap(),
        };
        let plan = LogicalPlan::Iterate {
            init: Box::new(init),
            step: Box::new(step),
            stop: Box::new(stop),
            max_iterations: 1000,
            schema: int_schema,
        };
        let out = exec(&catalog, &plan);
        let total = Chunk::concat(&[DataType::Int64], &out).unwrap();
        // Smallest three-digit multiple of seven.
        assert_eq!(total.column(0).as_i64().unwrap(), &[105]);
    }

    #[test]
    fn iterate_memory_is_non_appending() {
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: (0..50).map(|i| vec![Value::Int(i)]).collect(),
        };
        let working = LogicalPlan::WorkingTable {
            name: "iterate".into(),
            schema: Arc::clone(&int_schema),
        };
        let step = LogicalPlan::Project {
            input: Box::new(working.clone()),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(1i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let stop = LogicalPlan::Filter {
            input: Box::new(working),
            predicate: ScalarExpr::binary(
                BinaryOp::GtEq,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(1000i64),
            )
            .unwrap(),
        };
        let plan = LogicalPlan::Iterate {
            init: Box::new(init),
            step: Box::new(step),
            stop: Box::new(stop),
            max_iterations: 10_000,
            schema: int_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        assert_eq!(crate::util::total_rows(&out), 50);
        // §5.1: at most 2·n live tuples regardless of iteration count.
        assert!(
            e.ctx.stats.peak_working_rows <= 100,
            "peak {} exceeds 2n",
            e.ctx.stats.peak_working_rows
        );
        assert!(e.ctx.stats.iterations > 900);
    }

    #[test]
    fn recursive_cte_union_all_counts() {
        // WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 WHERE n<10)
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("n", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: vec![vec![Value::Int(1)]],
        };
        let step = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::WorkingTable {
                    name: "r".into(),
                    schema: Arc::clone(&int_schema),
                }),
                predicate: ScalarExpr::binary(
                    BinaryOp::Lt,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::literal(10i64),
                )
                .unwrap(),
            }),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(1i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let plan = LogicalPlan::RecursiveCte {
            name: "r".into(),
            init: Box::new(init),
            step: Box::new(step),
            all: true,
            schema: int_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        let total = Chunk::concat(&[DataType::Int64], &out).unwrap();
        let mut got: Vec<i64> = total.column(0).as_i64().unwrap().to_vec();
        got.sort_unstable();
        assert_eq!(got, (1..=10).collect::<Vec<i64>>());
        // Appending semantics: the peak intermediate is the full result.
        assert!(e.ctx.stats.peak_working_rows >= 10);
    }

    #[test]
    fn recursive_cte_union_dedups_to_fixpoint() {
        // Step produces an already-seen value → fixpoint terminates even
        // though the step never returns empty on its own.
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("n", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: vec![vec![Value::Int(0)]],
        };
        // step: SELECT (n+1) % 5 FROM r
        let step = LogicalPlan::Project {
            input: Box::new(LogicalPlan::WorkingTable {
                name: "r".into(),
                schema: Arc::clone(&int_schema),
            }),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Mod,
                ScalarExpr::binary(
                    BinaryOp::Add,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::literal(1i64),
                )
                .unwrap(),
                ScalarExpr::literal(5i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let plan = LogicalPlan::RecursiveCte {
            name: "r".into(),
            init: Box::new(init),
            step: Box::new(step),
            all: false,
            schema: int_schema,
        };
        let (catalog2, _) = (catalog, ());
        let mut e = Executor::new(ExecContext::new(catalog2));
        let out = e.execute(&plan).unwrap();
        assert_eq!(crate::util::total_rows(&out), 5);
    }

    #[test]
    fn kmeans_operator_end_to_end() {
        let catalog = Arc::new(Catalog::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ]));
        let data = LogicalPlan::Values {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![Value::Float(0.0), Value::Float(0.0)],
                vec![Value::Float(0.2), Value::Float(0.1)],
                vec![Value::Float(9.0), Value::Float(9.0)],
                vec![Value::Float(9.2), Value::Float(9.1)],
            ],
        };
        let centers = LogicalPlan::Values {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![Value::Float(1.0), Value::Float(1.0)],
                vec![Value::Float(8.0), Value::Float(8.0)],
            ],
        };
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("cluster_id", DataType::Int64),
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
            Field::new("size", DataType::Int64),
        ]));
        let plan = LogicalPlan::KMeans {
            data: Box::new(data),
            centers: Box::new(centers),
            lambda: None,
            max_iterations: 10,
            schema: out_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[0].column(3).as_i64().unwrap(), &[2, 2]);
    }

    #[test]
    fn pagerank_operator_end_to_end() {
        let catalog = Arc::new(Catalog::new());
        let edge_schema = Arc::new(Schema::new(vec![
            Field::new("src", DataType::Int64),
            Field::new("dest", DataType::Int64),
        ]));
        // 4-cycle.
        let edges = LogicalPlan::Values {
            schema: Arc::clone(&edge_schema),
            rows: vec![
                vec![Value::Int(10), Value::Int(20)],
                vec![Value::Int(20), Value::Int(30)],
                vec![Value::Int(30), Value::Int(40)],
                vec![Value::Int(40), Value::Int(10)],
            ],
        };
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("vertex", DataType::Int64),
            Field::new("rank", DataType::Float64),
        ]));
        let plan = LogicalPlan::PageRank {
            edges: Box::new(edges),
            weighted: false,
            damping: 0.85,
            epsilon: 1e-9,
            max_iterations: 100,
            schema: out_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        assert_eq!(out[0].len(), 4);
        let mut vertices: Vec<i64> = out[0].column(0).as_i64().unwrap().to_vec();
        vertices.sort_unstable();
        assert_eq!(vertices, vec![10, 20, 30, 40], "reverse mapping works");
        for &r in out[0].column(1).as_f64().unwrap() {
            assert!((r - 0.25).abs() < 1e-6);
        }
    }
}
