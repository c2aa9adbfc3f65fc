//! `wire-serving`: an in-process `Server` on loopback over a durable
//! database (`SyncMode::Commit`) in a scratch directory, at the server's
//! shipped defaults. Two client connections run a closed loop over a
//! seeded mix: about 70% short reads (point lookup by id, filter-
//! aggregate, 512-row range scan on a 20k×4 `data` table), about 20%
//! single-row autocommit INSERTs into `events`, and about 10% small
//! operator calls (KMEANS with 2 iterations, PAGERANK with 3 on ~20k
//! edges). The data fits the default 64 MiB buffer pool.
//!
//! Every read and operator answer is compared with the answer the
//! embedded engine gave at set-up, and at the end `events` must hold
//! exactly the acknowledged inserts.
//!
//! The unit of work behind `op_ms` is one read statement over the wire:
//! `op_ms` is the median read latency. It and `setup_s` are wall times:
//! with two clients and the server's threads on two cores, a reference
//! loop timed in a client thread would measure the scheduler rather than
//! the host, and the set-up (CSV load, server start) followed the host's
//! speed less closely than the reference loop did.
//!
//! The traced phase wraps the client calls in spans (submit, first chunk,
//! drain), then replays the read and operator statements in-process
//! through the layers (see [`crate::layers`]) and, for the reads, whole
//! through an embedded `Session`. Idle embedded commits give the commit
//! cost without the wire.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_bench::queries;
use hylite_client::{HyliteClient, RetryPolicy};
use hylite_common::{Chunk, HyError, Result, StdVfs, Value, Vfs};
use hylite_core::{CsvOptions, Database, DurabilityOptions, SyncMode};
use hylite_datagen::VectorDataset;
use hylite_graph::{LdbcConfig, LdbcGraph};
use hylite_server::{Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{mix, ScratchDir};
use crate::layers::{self, execute_layered, Counters, ExecTotals};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{repeat_setup, BenchResult, RunConfig};

const CLIENTS: usize = 2;
const READ_SHARE: f64 = 0.7;
const INSERT_SHARE: f64 = 0.2;
/// Passes over every read and operator statement in the traced
/// in-process replay.
const REPLAY_PASSES: usize = 3;
/// Idle embedded autocommits timed in the traced phase.
const COMMIT_PROBES: usize = 300;

struct Sizes {
    rows: usize,
    dims: usize,
    clusters: usize,
    vertices: usize,
    friendships: usize,
    scan_rows: usize,
    /// Distinct statements per read kind.
    statements: usize,
}

impl Sizes {
    fn new(cfg: &RunConfig) -> Sizes {
        if cfg.smoke {
            Sizes {
                rows: 600,
                dims: 2,
                clusters: 2,
                vertices: 60,
                friendships: 200,
                scan_rows: 64,
                statements: 8,
            }
        } else {
            Sizes {
                rows: 20_000,
                dims: 4,
                clusters: 4,
                vertices: 2_000,
                friendships: 10_000,
                scan_rows: 512,
                statements: 64,
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "data {}x{} (+id), kmeans k={} i=2, pagerank vertices={} friendships={} i=3, \
             scan {} rows, {} statements per read kind, {CLIENTS} clients",
            self.rows,
            self.dims,
            self.clusters,
            self.vertices,
            self.friendships,
            self.scan_rows,
            self.statements
        )
    }
}

/// An order-independent summary of a result relation: row count, a hash
/// over the exact (non-float) values, and the sum of the floats.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fingerprint {
    rows: usize,
    exact: u64,
    floats: f64,
}

impl Fingerprint {
    fn of(chunks: &[Chunk]) -> Fingerprint {
        let mut fp = Fingerprint {
            rows: 0,
            exact: 0,
            floats: 0.0,
        };
        for chunk in chunks {
            fp.rows += chunk.len();
            for i in 0..chunk.len() {
                let mut row = 0u64;
                for c in 0..chunk.num_columns() {
                    let salt = (c as u64) << 56;
                    let h = match chunk.column(c).value(i) {
                        Value::Int(v) => mix(salt ^ v as u64),
                        Value::Float(f) => {
                            fp.floats += f;
                            0
                        }
                        Value::Bool(b) => mix(salt ^ 0xb00 ^ u64::from(b)),
                        Value::Str(s) => s
                            .bytes()
                            .fold(mix(salt ^ 0x5), |h, b| mix(h ^ u64::from(b))),
                        Value::Null => mix(salt ^ 0xdead),
                    };
                    row = row.wrapping_add(h);
                }
                fp.exact = fp.exact.wrapping_add(mix(row));
            }
        }
        fp
    }

    /// Same rows and exact values; float sums equal up to summation order.
    fn matches(&self, other: &Fingerprint) -> bool {
        self.rows == other.rows
            && self.exact == other.exact
            && (self.floats - other.floats).abs() <= 1e-9 * self.floats.abs().max(1.0)
    }
}

struct Statement {
    /// Index into [`LABELS`].
    label: u8,
    sql: String,
    expect: Fingerprint,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Insert,
    Operator,
}

/// A durable database served on loopback, with the expected answers.
struct Setup {
    server: Option<ServerHandle>,
    db: Arc<Database>,
    addr: SocketAddr,
    reads: Vec<Statement>,
    operators: Vec<Statement>,
    // Declared last: dropped after the server and database are gone.
    _dir: ScratchDir,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn csv(header: &str, rows: impl Iterator<Item = String>) -> String {
    let mut text = String::from(header);
    text.push('\n');
    for row in rows {
        text.push_str(&row);
        text.push('\n');
    }
    text
}

fn setup(sizes: &Sizes, seed: u64) -> BenchResult<Setup> {
    let dir = ScratchDir::new("wire")?;
    let db = Arc::new(Database::open_with(
        Arc::new(StdVfs) as Arc<dyn Vfs>,
        dir.path(),
        DurabilityOptions {
            sync_mode: SyncMode::Commit,
            ..DurabilityOptions::default()
        },
    )?);
    let d = sizes.dims;
    let cols: Vec<String> = (0..d).map(|i| format!("c{i}")).collect();
    let typed: Vec<String> = cols.iter().map(|c| format!("{c} DOUBLE")).collect();
    db.execute(&format!(
        "CREATE TABLE data (id BIGINT, {})",
        typed.join(", ")
    ))?;
    db.execute(&format!(
        "CREATE TABLE centers (cid BIGINT, {})",
        typed.join(", ")
    ))?;
    db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT)")?;
    db.execute("CREATE TABLE events (id BIGINT, client BIGINT, v BIGINT)")?;
    db.execute("CREATE TABLE probe (id BIGINT)")?;

    let dataset = VectorDataset::new(sizes.rows, d, seed);
    let mut lines = Vec::with_capacity(sizes.rows);
    for chunk in dataset.chunks() {
        let columns: Vec<&[f64]> = (0..d)
            .map(|c| chunk.column(c).as_f64())
            .collect::<Result<_>>()?;
        for r in 0..chunk.len() {
            let values: Vec<String> = columns.iter().map(|c| c[r].to_string()).collect();
            lines.push(format!("{},{}", lines.len(), values.join(",")));
        }
    }
    let options = CsvOptions::default();
    db.copy_csv(
        "data",
        &csv(&format!("id,{}", cols.join(",")), lines.into_iter()),
        &options,
    )?;
    let centers = dataset.initial_centers(sizes.clusters);
    let center_rows = centers.iter().enumerate().map(|(i, c)| {
        let values: Vec<String> = c.iter().map(f64::to_string).collect();
        format!("{i},{}", values.join(","))
    });
    db.copy_csv(
        "centers",
        &csv(&format!("cid,{}", cols.join(",")), center_rows),
        &options,
    )?;
    let graph = LdbcGraph::generate(&LdbcConfig {
        vertices: sizes.vertices,
        edges: sizes.friendships,
        triangle_fraction: 0.3,
        seed,
    });
    let edge_rows = graph
        .src
        .iter()
        .zip(&graph.dest)
        .map(|(s, t)| format!("{s},{t}"));
    db.copy_csv("edges", &csv("src,dest", edge_rows), &options)?;

    // The statements, with the answers the embedded engine gives.
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5e7));
    let mut texts = Vec::new();
    for _ in 0..sizes.statements {
        let id = rng.gen_range(0..sizes.rows as i64);
        texts.push(format!(
            "SELECT id, {} FROM data WHERE id = {id}",
            cols.join(", ")
        ));
    }
    for _ in 0..sizes.statements {
        let x: f64 = rng.gen();
        texts.push(format!(
            "SELECT count(*), sum(c0) FROM data WHERE c1 > {x:.4}"
        ));
    }
    for _ in 0..sizes.statements {
        let lo = rng.gen_range(0..(sizes.rows - sizes.scan_rows) as i64);
        texts.push(format!(
            "SELECT id, c0 FROM data WHERE id >= {lo} AND id < {}",
            lo + sizes.scan_rows as i64
        ));
    }
    let mut session = db.session();
    let mut expect = |label: u8, sql: String| -> Result<Statement> {
        let result = session.execute(&sql)?;
        Ok(Statement {
            label,
            expect: Fingerprint::of(result.chunks()),
            sql,
        })
    };
    let reads = texts
        .into_iter()
        .enumerate()
        .map(|(i, sql)| expect((i / sizes.statements) as u8, sql))
        .collect::<Result<Vec<_>>>()?;
    let operators = vec![
        expect(4, queries::kmeans_operator(d, 2))?,
        expect(5, queries::pagerank_operator(0.85, 3))?,
    ];
    drop(session);

    let server = Server::start(ServerConfig::ephemeral(), Arc::clone(&db))?;
    let addr = server.local_addr();
    let setup = Setup {
        server: Some(server),
        db,
        addr,
        reads,
        operators,
        _dir: dir,
    };
    // Warm-up: every operator statement and a pass over the reads of
    // one kind, over the wire.
    let mut client = HyliteClient::connect(addr)?;
    for s in setup
        .operators
        .iter()
        .chain(&setup.reads[..sizes.statements])
    {
        client.query(&s.sql)?;
    }
    client.close()?;
    Ok(setup)
}

/// Statement classes, for the per-class latency detail.
const LABELS: [&str; 6] = ["point", "aggregate", "scan", "insert", "kmeans", "pagerank"];

/// One client statement as observed by the client. Kept small: a run
/// logs every statement, and the log is part of the process's memory.
struct Op {
    /// Seconds from submit to the last frame; infinite when it failed.
    latency: f32,
    kind: Kind,
    /// Index into [`LABELS`].
    label: u8,
    retried: bool,
}

#[derive(Default)]
struct ClientLog {
    ops: Vec<Op>,
    /// (id, v) of every acknowledged insert.
    acked: Vec<(i64, i64)>,
    /// Seconds from submit to the first chunk of each traced read.
    first_chunk: Vec<f64>,
    retries: u64,
    mismatches: Vec<String>,
}

/// What one statement returned: its chunks, rows affected, and (when
/// traced) the seconds until the first chunk arrived.
struct Reply {
    chunks: Vec<Chunk>,
    rows_affected: u64,
    first_chunk: Option<f64>,
}

fn traced_query(
    client: &mut HyliteClient,
    tracer: &Tracer,
    sql: &str,
    request: u64,
) -> Result<Reply> {
    let root = tracer.reserve_id();
    let t0 = Instant::now();
    let mut stream = client.query_streamed_with_retry(sql, &RetryPolicy::default())?;
    let t_schema = Instant::now();
    let mut chunks = Vec::new();
    let first = stream.next_chunk()?;
    let t_first = Instant::now();
    if let Some(chunk) = first {
        chunks.push(chunk);
        while let Some(chunk) = stream.next_chunk()? {
            chunks.push(chunk);
        }
    }
    let t_end = Instant::now();
    let summary = stream
        .summary()
        .ok_or_else(|| HyError::Protocol("result stream ended without a summary".into()))?;
    tracer.record(
        tracer.reserve_id(),
        "client.submit",
        request,
        root,
        t0,
        t_schema,
    );
    tracer.record(
        tracer.reserve_id(),
        "client.first_chunk",
        request,
        root,
        t_schema,
        t_first,
    );
    tracer.record(
        tracer.reserve_id(),
        "client.drain",
        request,
        root,
        t_first,
        t_end,
    );
    tracer.record(root, "client.statement", request, 0, t0, t_end);
    Ok(Reply {
        chunks,
        rows_affected: summary.rows_affected,
        first_chunk: Some((t_first - t0).as_secs_f64()),
    })
}

/// One client's closed loop until `deadline`. `phase` separates the
/// statement streams (and insert ids) of the untraced and traced phases.
fn client_loop(
    setup: &Setup,
    client_no: usize,
    seed: u64,
    phase: u64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Result<ClientLog> {
    let mut client = HyliteClient::connect(setup.addr)?;
    let mut rng = StdRng::seed_from_u64(mix(seed ^ ((client_no as u64 + 1) << 32) ^ (phase << 48)));
    let policy = RetryPolicy::default();
    let mut log = ClientLog::default();
    let mut seq = 0i64;
    while Instant::now() < deadline {
        let r: f64 = rng.gen();
        let (kind, label, sql, expect, insert) = if r < READ_SHARE {
            let s = &setup.reads[rng.gen_range(0..setup.reads.len())];
            (Kind::Read, s.label, s.sql.clone(), Some(s.expect), None)
        } else if r < READ_SHARE + INSERT_SHARE {
            seq += 1;
            let id = ((phase as i64 * CLIENTS as i64 + client_no as i64) << 40) + seq;
            let v = rng.gen_range(0..1_000_000i64);
            let sql = format!("INSERT INTO events VALUES ({id}, {client_no}, {v})");
            (Kind::Insert, 3, sql, None, Some((id, v)))
        } else {
            let s = &setup.operators[rng.gen_range(0..setup.operators.len())];
            (Kind::Operator, s.label, s.sql.clone(), Some(s.expect), None)
        };
        let retries_before = client.retries();
        let started = Instant::now();
        let reply = match tracer {
            Some(t) => {
                let request = ((client_no as u64) << 40) | log.ops.len() as u64;
                traced_query(&mut client, t, &sql, request)
            }
            None => client.query_with_retry(&sql, &policy).map(|r| Reply {
                chunks: r.chunks,
                rows_affected: r.rows_affected,
                first_chunk: None,
            }),
        };
        let elapsed = started.elapsed().as_secs_f64();
        let retried = client.retries() > retries_before;
        let ok = match &reply {
            Ok(reply) => match (insert, expect) {
                (Some(row), _) => {
                    if reply.rows_affected == 1 {
                        log.acked.push(row);
                        true
                    } else {
                        log.mismatches
                            .push(format!("{sql}: {} rows affected", reply.rows_affected));
                        false
                    }
                }
                (None, Some(expect)) => {
                    if kind == Kind::Read {
                        log.first_chunk.extend(reply.first_chunk);
                    }
                    let got = Fingerprint::of(&reply.chunks);
                    if got.matches(&expect) {
                        true
                    } else {
                        log.mismatches
                            .push(format!("{sql}: got {got:?}, expected {expect:?}"));
                        false
                    }
                }
                (None, None) => true,
            },
            Err(e) => {
                log.mismatches.push(format!("{sql}: {e}"));
                false
            }
        };
        log.ops.push(Op {
            latency: if ok { elapsed as f32 } else { f32::INFINITY },
            kind,
            label,
            retried,
        });
    }
    log.retries = client.retries();
    client.close()?;
    Ok(log)
}

/// Run the clients until `seconds` have passed; returns their logs and
/// the phase's wall time.
fn run_clients(
    setup: &Setup,
    seed: u64,
    phase: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(Vec<ClientLog>, f64)> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client_loop(setup, c, seed, phase, deadline, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>>>()
    })?;
    Ok((logs, started.elapsed().as_secs_f64()))
}

fn latencies(logs: &[ClientLog], kind: Kind) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.ops)
        .filter(|o| o.kind == kind)
        .map(|o| f64::from(o.latency))
        .collect()
}

pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>, out: &mut Outcome) -> BenchResult<()> {
    let sizes = Sizes::new(cfg);
    out.provenance("sizes", sizes.describe());
    out.provenance("sync_mode", "Commit");
    out.provenance(
        "buffer_pool_bytes",
        DurabilityOptions::default().buffer_pool_bytes,
    );
    out.provenance(
        "open_loop_rate",
        format!("none (closed loop, {CLIENTS} connections)"),
    );
    out.provenance(
        "server_config",
        "ServerConfig::ephemeral() (shipped defaults)",
    );
    let (setup, setups) = repeat_setup(|| setup(&sizes, cfg.seed))?;

    let (mut logs, wall) = run_clients(&setup, cfg.seed, 0, cfg.untraced_seconds(), None)?;
    let untraced_reads = latencies(&logs, Kind::Read);
    let ok = logs
        .iter()
        .flat_map(|l| &l.ops)
        .filter(|o| o.latency.is_finite())
        .count();
    setups.report(out, false);
    if let Some(p50) = median(&untraced_reads) {
        out.metric_with(
            "op_ms",
            p50 * 1e3,
            "ms",
            untraced_reads.len(),
            "median read statement over the wire".into(),
        );
    }
    out.metric_with(
        "stmt_per_s",
        ok as f64 / wall,
        "1/s",
        ok,
        format!("{ok} statements in {wall:.3} s"),
    );
    out.tail("read_p99_ms", &untraced_reads, 99.0, 1e3, "ms");
    let commits = latencies(&logs, Kind::Insert);
    out.median("commit_p50_ms", &commits, 1e3, "ms");
    out.tail("commit_p99_ms", &commits, 99.0, 1e3, "ms");
    for (i, label) in LABELS.iter().enumerate() {
        let lat: Vec<f64> = logs
            .iter()
            .flat_map(|l| &l.ops)
            .filter(|o| usize::from(o.label) == i)
            .map(|o| f64::from(o.latency))
            .collect();
        if let (Some(p50), Some(t)) = (median(&lat), tail(&lat, 99.0)) {
            out.provenance(
                &format!("latency_{label}"),
                format!(
                    "n={} p50={:.3} ms p{}={:.3} ms",
                    lat.len(),
                    p50 * 1e3,
                    t.pct,
                    t.value * 1e3
                ),
            );
        }
    }

    if let Some(tracer) = tracer {
        let before = setup.db.metrics_snapshot();
        let (traced_logs, _) =
            run_clients(&setup, cfg.seed, 1, cfg.traced_seconds(), Some(tracer))?;
        let traced_reads = latencies(&traced_logs, Kind::Read);
        let first_chunk: Vec<f64> = traced_logs
            .iter()
            .flat_map(|l| l.first_chunk.iter().copied())
            .collect();
        logs.extend(traced_logs);
        replay_in_process(tracer, &setup, out)?;
        let after = setup.db.metrics_snapshot();
        let counters = Counters::new(vec![(before, after.clone())]);
        counters.report(out);
        let sample = setup.db.execute("SELECT * FROM data")?.to_chunk()?;
        layers::segment_codec(
            tracer,
            &sample,
            DurabilityOptions::default().buffer_pool_bytes,
            out,
        )?;
        layers::report_spans(tracer, out);

        let core_read = tracer.durations_us("core.read");
        out.median("core.read_us", &core_read, 1.0, "us");
        if let (Some(wire_read), Some(core)) = (median(&untraced_reads), median(&core_read)) {
            out.metric_with(
                "wire.overhead_us",
                wire_read * 1e6 - core,
                "us",
                untraced_reads.len(),
                format!(
                    "wire read p50 {:.1} us - core.read_us {core:.1}",
                    wire_read * 1e6
                ),
            );
        }
        out.median("client.first_chunk_us", &first_chunk, 1e6, "us");
        let queue = after.histogram("server.queue_wait_us");
        out.metric_with(
            "server.queue_wait_us",
            queue.map_or(0.0, |h| h.p99 as f64),
            "us",
            queue.map_or(0, |h| h.count as usize),
            "p99 of the server's own histogram".into(),
        );
        out.metric(
            "server.stmt_queued",
            counters.delta("server.stmt_queued"),
            "count",
            1,
        );
        out.metric(
            "client.retries",
            logs.iter().map(|l| l.retries).sum::<u64>() as f64,
            "count",
            logs.len(),
        );
        if let (Some(u), Some(t)) = (median(&untraced_reads), median(&traced_reads)) {
            layers::report_overhead(
                out,
                u * 1e6,
                t * 1e6,
                traced_reads.len(),
                "read p50 over the wire, us",
            );
        }
    }

    // Accounting and checks over every phase.
    for log in &logs {
        out.attempted += log.ops.len() as u64;
        out.failed += log.ops.iter().filter(|o| !o.latency.is_finite()).count() as u64;
        out.retried += log
            .ops
            .iter()
            .filter(|o| o.retried && o.latency.is_finite())
            .count() as u64;
    }
    let mismatches: Vec<&String> = logs.iter().flat_map(|l| &l.mismatches).collect();
    out.check(
        "every wire answer matches the embedded answer",
        mismatches.is_empty(),
        match mismatches.first() {
            Some(m) => format!("{} mismatches; first: {m}", mismatches.len()),
            None => format!(
                "{} statements",
                logs.iter().map(|l| l.ops.len()).sum::<usize>()
            ),
        },
    );
    let acked: Vec<&(i64, i64)> = logs.iter().flat_map(|l| &l.acked).collect();
    let counted = setup
        .db
        .execute("SELECT count(*), sum(v) FROM events")?
        .to_chunk()?;
    let count = counted.column(0).value(0).as_int().unwrap_or(0);
    let sum = counted.column(1).value(0).as_int().unwrap_or(0);
    let want_sum: i64 = acked.iter().map(|(_, v)| v).sum();
    out.check(
        "events holds exactly the acknowledged inserts",
        count == acked.len() as i64 && sum == want_sum,
        format!(
            "count {count} (acked {}), sum {sum} (acked {want_sum})",
            acked.len()
        ),
    );
    Ok(())
}

/// The traced in-process replay: every read and operator statement
/// through the layers one call at a time, and every read whole through
/// an embedded session; then idle embedded autocommits.
fn replay_in_process(tracer: &Tracer, setup: &Setup, out: &mut Outcome) -> BenchResult<()> {
    let mut session = setup.db.session();
    let mut request = 1u64 << 62;
    let mut mismatches = 0usize;
    let mut totals = ExecTotals::default();
    for _ in 0..REPLAY_PASSES {
        totals.pass();
        for s in setup.reads.iter().chain(&setup.operators) {
            request += 1;
            out.attempted += 1;
            let traced = execute_layered(tracer, &setup.db, &s.sql, request)?;
            if !Fingerprint::of(&traced.chunks).matches(&s.expect) {
                mismatches += 1;
            }
            totals.add(&traced);
        }
        for s in &setup.reads {
            request += 1;
            out.attempted += 1;
            let result = tracer.span("core.read", request, 0, |_| session.execute(&s.sql))?;
            if !Fingerprint::of(result.chunks()).matches(&s.expect) {
                mismatches += 1;
            }
        }
    }
    totals.report(out);
    layers::commit_probes(tracer, &mut session, COMMIT_PROBES, out);
    out.failed += mismatches as u64;
    out.check(
        "in-process replay matches the expected answers",
        mismatches == 0,
        format!(
            "{mismatches} mismatches over {} statements",
            REPLAY_PASSES * (2 * setup.reads.len() + setup.operators.len())
        ),
    );
    Ok(())
}
