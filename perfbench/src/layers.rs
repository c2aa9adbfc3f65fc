//! The per-layer measurements every workload's traced run makes the same
//! way, on its own statements and data, from outside the engine:
//!
//! * each replayed query goes through the layers one public call at a
//!   time (`sql.parse`, `planner.bind`, `planner.optimize`, then
//!   `exec.execute` with the per-operator profile on), and its result
//!   through the wire codec (`wire.encode`, `wire.decode`);
//! * idle single-row autocommits time `core.commit`;
//! * a chunk of the workload's main table goes through the segment codec;
//! * the engine's own counters are read before and after.
//!
//! [`crate::PER_LAYER`] names the metrics reported here.

use std::collections::BTreeMap;
use std::sync::Arc;

use hylite_common::wire::{decode_frame, encode_frame};
use hylite_common::{
    Chunk, Frame, HyError, MetricsRegistry, MetricsSnapshot, OpSpan, QueryProfile, Result, StdVfs,
    Vfs,
};
use hylite_core::{Database, Session};
use hylite_exec::{ExecContext, ExecStats, Executor};
use hylite_planner::binder::BoundStatement;
use hylite_planner::{Binder, Optimizer};
use hylite_storage::segment::encode_segment;
use hylite_storage::{BufferPool, SegmentStore};

use crate::host::ScratchDir;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::BenchResult;

/// The operator kinds the per-operator metrics name.
const OP_KINDS: [&str; 6] = ["scan", "filter", "project", "aggregate", "join", "iterate"];

fn op_kind(op_name: &str) -> Option<&'static str> {
    match op_name {
        "TableScan" => Some("scan"),
        "Filter" => Some("filter"),
        "Project" => Some("project"),
        "Aggregate" => Some("aggregate"),
        "Join" => Some("join"),
        "Iterate" => Some("iterate"),
        _ => None,
    }
}

/// Per operator kind: self time (ms) and rows in, summed over every node
/// of that kind. A scan has no child operator, so its rows in are the
/// rows it emitted.
fn fold_profile(span: &OpSpan, acc: &mut BTreeMap<&'static str, (f64, f64)>) {
    if let Some(kind) = op_kind(&span.op_name) {
        let rows_in = if span.children.is_empty() {
            span.rows_out
        } else {
            span.rows_in()
        };
        let entry = acc.entry(kind).or_default();
        entry.0 += span.self_wall().as_secs_f64() * 1e3;
        entry.1 += rows_in as f64;
    }
    for child in &span.children {
        fold_profile(child, acc);
    }
}

/// What one layered execution returned and recorded.
pub struct TracedRun {
    pub chunks: Vec<Chunk>,
    pub profile: Option<QueryProfile>,
    pub stats: ExecStats,
}

impl TracedRun {
    /// Per operator kind: self time (ms) and rows in.
    pub fn by_kind(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut acc = BTreeMap::new();
        for root in self.profile.iter().flat_map(|p| p.roots.iter()) {
            fold_profile(root, &mut acc);
        }
        acc
    }
}

/// One query through the layers, each call in its own span: parse,
/// bind, optimize, execute with the per-operator profile enabled, then
/// its result chunks encoded into wire frames and decoded back.
pub fn execute_layered(
    tracer: &Tracer,
    db: &Database,
    sql: &str,
    request: u64,
) -> Result<TracedRun> {
    tracer.span("statement", request, 0, |root| {
        let stmt = tracer.span("sql.parse", request, root, |_| {
            hylite_sql::parse_statement(sql)
        })?;
        let bound = tracer.span("planner.bind", request, root, |_| {
            Binder::new(db.catalog()).bind_statement(&stmt)
        })?;
        let BoundStatement::Query(plan) = bound else {
            return Err(HyError::Internal(format!("not a query: {sql}")));
        };
        let plan = tracer.span("planner.optimize", request, root, |_| {
            Optimizer::new().optimize(plan)
        })?;
        let mut executor = Executor::new(
            ExecContext::new(Arc::clone(db.catalog())).with_metrics(Arc::clone(db.metrics())),
        );
        executor.ctx.enable_profiling();
        let chunks = tracer.span("exec.execute", request, root, |_| executor.execute(&plan))?;
        let frames = tracer.span("wire.encode", request, root, |_| {
            chunks
                .iter()
                .map(|chunk| {
                    encode_frame(&Frame::DataChunk {
                        chunk: chunk.clone(),
                    })
                })
                .collect::<Vec<_>>()
        });
        let decoded = tracer.span("wire.decode", request, root, |_| {
            frames
                .iter()
                .map(|bytes| decode_frame(bytes[4], &bytes[5..]))
                .collect::<Result<Vec<Frame>>>()
        })?;
        let rows: usize = decoded
            .iter()
            .map(|f| match f {
                Frame::DataChunk { chunk } => chunk.len(),
                _ => 0,
            })
            .sum();
        let want: usize = chunks.iter().map(Chunk::len).sum();
        if rows != want {
            return Err(HyError::Internal(format!(
                "wire codec round trip gave {rows} rows of {want}"
            )));
        }
        Ok(TracedRun {
            chunks,
            profile: executor.ctx.take_profile(),
            stats: executor.ctx.stats,
        })
    })
}

/// Operator totals per pass over a workload's replayed statements.
#[derive(Default)]
pub struct ExecTotals {
    passes: Vec<BTreeMap<&'static str, (f64, f64)>>,
    iterations: Vec<f64>,
}

impl ExecTotals {
    /// Start a pass: the runs added next are summed into it.
    pub fn pass(&mut self) {
        self.passes.push(BTreeMap::new());
        self.iterations.push(0.0);
    }

    pub fn add(&mut self, run: &TracedRun) {
        if self.passes.is_empty() {
            self.pass();
        }
        let pass = self.passes.last_mut().expect("a pass was started");
        for (kind, (self_ms, rows_in)) in run.by_kind() {
            let entry = pass.entry(kind).or_default();
            entry.0 += self_ms;
            entry.1 += rows_in;
        }
        *self.iterations.last_mut().expect("a pass was started") += run.stats.iterations as f64;
    }

    /// `exec.<kind>.self_ms` and `exec.<kind>.rows_in` per pass, and
    /// `analytics.iterations`, each the median over the passes.
    pub fn report(&self, out: &mut Outcome) {
        let per_pass = |f: &dyn Fn(&(f64, f64)) -> f64, kind: &str| -> Vec<f64> {
            self.passes
                .iter()
                .map(|p| p.get(kind).map_or(0.0, f))
                .collect()
        };
        for kind in OP_KINDS {
            let self_ms = per_pass(&|e| e.0, kind);
            out.median(&format!("exec.{kind}.self_ms"), &self_ms, 1.0, "ms");
            let rows_in = per_pass(&|e| e.1, kind);
            out.median(&format!("exec.{kind}.rows_in"), &rows_in, 1.0, "rows");
        }
        out.median("analytics.iterations", &self.iterations, 1.0, "count");
    }
}

/// `n` idle single-row autocommits into `probe(id BIGINT)`, ids `0..n`,
/// each in a `core.commit` span. Returns how many were acknowledged.
pub fn commit_probes(tracer: &Tracer, session: &mut Session, n: usize, out: &mut Outcome) -> usize {
    let mut acked = 0;
    for i in 0..n {
        out.attempted += 1;
        let sql = format!("INSERT INTO probe VALUES ({i})");
        match tracer.span("core.commit", i as u64, 0, |_| session.execute(&sql)) {
            Ok(r) if r.rows_affected == 1 => acked += 1,
            Ok(r) => {
                out.failed += 1;
                eprintln!("perfbench: {sql} affected {} rows", r.rows_affected);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: {sql}: {e}");
            }
        }
    }
    out.check(
        "every idle autocommit acknowledged",
        acked == n,
        format!("{acked} of {n}"),
    );
    acked
}

/// Repetitions of the segment encode and decode timings.
const SEGMENT_REPS: usize = 9;

/// Segment encode and decode speed, and compression, on `chunk` (a
/// sample of the workload's main table, at most one segment's rows).
/// Every decode reads through a fresh store and a `pool_bytes` pool, so
/// every block read is a miss.
pub fn segment_codec(
    tracer: &Tracer,
    chunk: &Chunk,
    pool_bytes: usize,
    out: &mut Outcome,
) -> BenchResult<()> {
    let raw_mb = chunk.heap_bytes() as f64 / (1024.0 * 1024.0);
    let mut encoded_len = 0;
    for rep in 0..SEGMENT_REPS {
        let bytes = tracer.span("storage.encode_segment", rep as u64, 0, |_| {
            encode_segment(rep as u64 + 1, chunk)
        })?;
        encoded_len = bytes.len();
    }
    let dir = ScratchDir::new("segments")?;
    let vfs = Arc::new(StdVfs) as Arc<dyn Vfs>;
    let registry = MetricsRegistry::new();
    let store = SegmentStore::open(
        Arc::clone(&vfs),
        dir.path(),
        Arc::new(BufferPool::new(pool_bytes, &registry)),
    )?;
    store.write_segment(1, chunk)?;
    drop(store);
    for rep in 0..SEGMENT_REPS {
        let store = SegmentStore::open(
            Arc::clone(&vfs),
            dir.path(),
            Arc::new(BufferPool::new(pool_bytes, &registry)),
        )?;
        let segment = store.open_segment(1)?;
        let rows = tracer.span("storage.read_rows", rep as u64, 0, |_| {
            segment.read_rows(0, segment.rows(), None)
        })?;
        if rows.len() != chunk.len() {
            return Err(format!("decoded {} rows of {}", rows.len(), chunk.len()).into());
        }
    }
    let throughput = |name: &str| -> Vec<f64> {
        tracer
            .durations_us(name)
            .into_iter()
            .map(|us| raw_mb / (us / 1e6))
            .collect()
    };
    out.median(
        "storage.segment.encode_mb_s",
        &throughput("storage.encode_segment"),
        1.0,
        "MiB/s",
    );
    out.median(
        "storage.segment.decode_mb_s",
        &throughput("storage.read_rows"),
        1.0,
        "MiB/s",
    );
    out.metric_with(
        "storage.segment.compression_ratio",
        chunk.heap_bytes() as f64 / encoded_len as f64,
        "ratio",
        SEGMENT_REPS,
        format!(
            "{} rows, {} decoded bytes / {encoded_len} encoded",
            chunk.len(),
            chunk.heap_bytes()
        ),
    );
    Ok(())
}

/// The engine counters of every database a workload used, read before
/// and after its traced phase.
pub struct Counters {
    windows: Vec<(MetricsSnapshot, MetricsSnapshot)>,
}

impl Counters {
    pub fn new(windows: Vec<(MetricsSnapshot, MetricsSnapshot)>) -> Counters {
        Counters { windows }
    }

    /// How far counter `name` moved, summed over the databases.
    pub fn delta(&self, name: &str) -> f64 {
        self.windows
            .iter()
            .map(|(before, after)| after.counter(name).saturating_sub(before.counter(name)) as f64)
            .sum()
    }

    /// The `storage.*` counter metrics.
    pub fn report(&self, out: &mut Outcome) {
        let commits = self.delta("wal.commits");
        out.metric("storage.wal.commits", commits, "count", 1);
        out.metric("storage.wal.fsyncs", self.delta("wal.fsyncs"), "count", 1);
        out.metric(
            "storage.wal.group_commits",
            self.delta("wal.group_commits"),
            "count",
            1,
        );
        let bytes = self.delta("wal.bytes_written");
        out.metric_with(
            "storage.wal.bytes_per_commit",
            bytes / commits.max(1.0),
            "B",
            1,
            format!("{bytes} bytes / {commits} commits"),
        );
        let hits = self.delta("storage.pool.hits");
        let misses = self.delta("storage.pool.misses");
        out.metric("storage.pool.hits", hits, "count", 1);
        out.metric("storage.pool.misses", misses, "count", 1);
        out.metric(
            "storage.pool.evictions",
            self.delta("storage.pool.evictions"),
            "count",
            1,
        );
        out.metric_with(
            "storage.pool.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
            1,
            format!("{hits} hits / {} lookups", hits + misses),
        );
        out.metric(
            "storage.scan.blocks_scanned",
            self.delta("scan.blocks_scanned"),
            "count",
            1,
        );
        out.metric(
            "storage.scan.blocks_pruned",
            self.delta("scan.blocks_pruned"),
            "count",
            1,
        );
        out.metric(
            "storage.checkpoint.segments_sealed",
            self.delta("checkpoint.segments_sealed"),
            "count",
            1,
        );
    }
}

/// The span medians every workload reports: `sql.parse_us`,
/// `planner.bind_us`, `planner.optimize_us`, `wire.encode_us`,
/// `wire.decode_us` and `core.commit_us`.
pub fn report_spans(tracer: &Tracer, out: &mut Outcome) {
    for (span, metric) in [
        ("sql.parse", "sql.parse_us"),
        ("planner.bind", "planner.bind_us"),
        ("planner.optimize", "planner.optimize_us"),
        ("wire.encode", "wire.encode_us"),
        ("wire.decode", "wire.decode_us"),
        ("core.commit", "core.commit_us"),
    ] {
        out.median(metric, &tracer.durations_us(span), 1.0, "us");
    }
}

/// `trace.overhead_pct`: how much slower `traced` is than `untraced`.
pub fn report_overhead(out: &mut Outcome, untraced: f64, traced: f64, samples: usize, what: &str) {
    out.metric_with(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
        samples,
        format!("{what}: traced {traced:.4} vs untraced {untraced:.4}"),
    );
}
