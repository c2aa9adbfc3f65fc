//! `durable-ingest`: an embedded durable database (`SyncMode::Commit`)
//! in a scratch directory. Set-up preloads a 1M-row
//! `big(id BIGINT, v BIGINT, name VARCHAR)` table through the CSV bulk
//! loader and takes a full checkpoint; the buffer pool is capped so the
//! sealed table's decoded blocks are at least four times the cap.
//!
//! Two threads then share the writer gate and the WAL:
//! * thread A is an open-loop writer: single-row autocommits into
//!   `ticks` at a fixed rate, each timed from when it was due;
//! * thread B starts a cycle every [`Sizes::period`]: it bulk-inserts one
//!   segment of rows into `big` (65,536 rows in 1000-row INSERTs), takes
//!   a checkpoint, then runs cold range aggregates over three quarters of
//!   `big`. The fixed period keeps the table's growth, and so the scanned
//!   size, the same on a faster or slower engine.
//!
//! Every scan is checked against sums computed from the generator. At the
//! end the database is dropped without `close()` and the directory is
//! reopened: every acknowledged commit and bulk row must be there, by
//! count and sum.
//!
//! The unit of work behind `op_ms` is one cycle of thread B (bulk load,
//! checkpoint, cold scans): `op_ms` is the median time from a cycle's
//! start to its last scan's answer, host-scaled (see
//! [`crate::host::HostScale`]); the wall time is printed beside it as
//! `op_wall_ms`. `setup_s` is a wall time: the set-up (CSV load and a
//! checkpoint with fsyncs) followed the host's speed less closely than
//! the reference loop did.
//!
//! The traced phase wraps each call into the engine in a span, times idle
//! commits before the threads start, replays cold scans through the
//! layers, reads the storage counters, times segment encode and decode on
//! a `big`-shaped chunk (see [`crate::layers`]), and times the reopen.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_common::{Chunk, ColumnVector, HyError, Result, StdVfs, Vfs};
use hylite_core::{CheckpointStats, CsvOptions, Database, DurabilityOptions, Session, SyncMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::HostScale;
use crate::host::{dir_bytes, mix, ScratchDir};
use crate::layers::{self, execute_layered, Counters, ExecTotals};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{repeat_setup, BenchResult, RunConfig};

/// Cold range aggregates per cycle of thread B.
const SCANS_PER_CYCLE: usize = 3;
/// Idle embedded autocommits timed in the traced phase.
const COMMIT_PROBES: usize = 200;
/// Passes over [`SCANS_PER_CYCLE`] cold scans in the traced replay.
const REPLAY_PASSES: usize = 3;

struct Sizes {
    preload: i64,
    bulk_rows: i64,
    batch_rows: i64,
    /// Thread A's commits per second.
    rate: f64,
    pool_bytes: usize,
    /// Thread B starts a cycle this often.
    period: Duration,
}

impl Sizes {
    fn new(cfg: &RunConfig) -> Sizes {
        if cfg.smoke {
            Sizes {
                preload: 20_000,
                bulk_rows: 4_096,
                batch_rows: 512,
                rate: 100.0,
                pool_bytes: 64 * 1024,
                period: Duration::from_millis(250),
            }
        } else {
            Sizes {
                preload: 1_000_000,
                bulk_rows: 65_536,
                batch_rows: 1_000,
                rate: 250.0,
                pool_bytes: 4 * 1024 * 1024,
                period: Duration::from_secs(2),
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "big preload {} rows; bulk {} rows per cycle in {}-row INSERTs; cycle every {:?}; \
             {SCANS_PER_CYCLE} scans over 3/4 of big per cycle",
            self.preload, self.bulk_rows, self.batch_rows, self.period
        )
    }
}

/// `big.v` of row `id`: recomputable, so scans can be checked.
fn big_v(seed: u64, id: i64) -> i64 {
    (mix(seed ^ 0xb16 ^ (id as u64).wrapping_mul(0x9e37_79b9)) % 1_000_000) as i64
}

fn big_name(v: i64) -> String {
    format!("n{:04}", v % 5000)
}

/// Logical bytes of a `big` row: two BIGINTs and the name's bytes.
fn big_row_bytes(v: i64) -> u64 {
    16 + big_name(v).len() as u64
}

fn open(dir: &std::path::Path, pool_bytes: usize) -> Result<Database> {
    Database::open_with(
        Arc::new(StdVfs) as Arc<dyn Vfs>,
        dir,
        DurabilityOptions {
            sync_mode: SyncMode::Commit,
            buffer_pool_bytes: pool_bytes,
            ..DurabilityOptions::default()
        },
    )
}

struct Setup {
    db: Option<Database>,
    preload: CheckpointStats,
    // Declared last: removed after the database is dropped.
    dir: ScratchDir,
}

fn setup(sizes: &Sizes, seed: u64) -> BenchResult<Setup> {
    let dir = ScratchDir::new("ingest")?;
    let db = open(dir.path(), sizes.pool_bytes)?;
    db.execute("CREATE TABLE big (id BIGINT, v BIGINT, name VARCHAR)")?;
    db.execute("CREATE TABLE ticks (id BIGINT, v BIGINT)")?;
    db.execute("CREATE TABLE probe (id BIGINT)")?;
    let mut text = String::with_capacity(sizes.preload as usize * 24);
    text.push_str("id,v,name\n");
    for id in 0..sizes.preload {
        let v = big_v(seed, id);
        text.push_str(&format!("{id},{v},{}\n", big_name(v)));
    }
    db.copy_csv("big", &text, &CsvOptions::default())?;
    drop(text);
    let preload = db.checkpoint()?;
    Ok(Setup {
        db: Some(db),
        preload,
        dir,
    })
}

/// One commit of thread A.
struct Commit {
    /// Seconds since the phase started at which the commit was due.
    due: f64,
    /// Seconds from due to acknowledgement; infinite when it failed.
    latency: f64,
    /// How late the generator woke for a commit it had to wait for.
    wake_late: Option<f64>,
}

/// What one phase did and saw.
#[derive(Default)]
struct PhaseLog {
    commits: Vec<Commit>,
    /// (id, v) of every acknowledged `ticks` commit.
    acked_ticks: Vec<(i64, i64)>,
    bulk_statements: u64,
    bulk_failed: u64,
    /// Checkpoint start and end (seconds since the phase started) and
    /// what it sealed; `None` when it failed.
    checkpoints: Vec<(f64, f64, Option<CheckpointStats>)>,
    /// Cold scan seconds; infinite when it failed.
    scans: Vec<f64>,
    /// Seconds from each cycle's start to its last scan's answer;
    /// infinite when a step of the cycle failed.
    cycles: Vec<f64>,
    /// The same, host-scaled.
    scaled_cycles: Vec<f64>,
    mismatches: Vec<String>,
}

/// The rows of `big` known to be committed: the preload plus every
/// acknowledged bulk range.
struct Committed {
    ranges: Vec<Range<i64>>,
}

impl Committed {
    fn end(&self) -> i64 {
        self.ranges.iter().map(|r| r.end).max().unwrap_or(0)
    }

    /// Count and sum of `v` over committed ids in `[lo, hi)`.
    fn expect(&self, seed: u64, lo: i64, hi: i64) -> (i64, i64) {
        let (mut count, mut sum) = (0, 0);
        for r in &self.ranges {
            for id in r.start.max(lo)..r.end.min(hi) {
                count += 1;
                sum += big_v(seed, id);
            }
        }
        (count, sum)
    }
}

fn execute(
    session: &mut Session,
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    sql: &str,
) -> Result<u64> {
    let result = match tracer {
        Some(t) => t.span(name, request, 0, |_| session.execute(sql)),
        None => session.execute(sql),
    }?;
    Ok(result.rows_affected as u64)
}

/// Scalar pair of a `count(*), sum(...)` result (an empty sum is 0).
fn count_sum(db: &Database, sql: &str) -> Result<(i64, i64)> {
    let chunk = db.execute(sql)?.to_chunk()?;
    Ok((
        chunk.column(0).value(0).as_int().unwrap_or(0),
        chunk.column(1).value(0).as_int().unwrap_or(0),
    ))
}

/// Run threads A and B for `seconds`. `phase` keeps `ticks` ids apart.
fn run_phase(
    db: &Database,
    sizes: &Sizes,
    seed: u64,
    phase: u64,
    seconds: f64,
    committed: &mut Committed,
    tracer: Option<&Tracer>,
) -> PhaseLog {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let (a, b) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut log = PhaseLog::default();
            let mut session = db.session();
            let interval = 1.0 / sizes.rate;
            for i in 0u64.. {
                let due = t0 + Duration::from_secs_f64(i as f64 * interval);
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                let wake_late = (now < due).then(|| {
                    std::thread::sleep(due - now);
                    since(Instant::now()) - since(due)
                });
                let id = ((phase as i64) << 40) + i as i64;
                let v = big_v(seed ^ 0x71c, id);
                let sql = format!("INSERT INTO ticks VALUES ({id}, {v})");
                let ok = match execute(&mut session, tracer, "core.execute", id as u64, &sql) {
                    Ok(1) => true,
                    Ok(n) => {
                        log.mismatches.push(format!("{sql}: {n} rows affected"));
                        false
                    }
                    Err(e) => {
                        log.mismatches.push(format!("{sql}: {e}"));
                        false
                    }
                };
                if ok {
                    log.acked_ticks.push((id, v));
                }
                let ack = Instant::now();
                log.commits.push(Commit {
                    due: since(due),
                    latency: if ok {
                        since(ack) - since(due)
                    } else {
                        f64::INFINITY
                    },
                    wake_late,
                });
            }
            log
        });
        let loader = scope.spawn(|| {
            let mut log = PhaseLog::default();
            let mut session = db.session();
            let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xb ^ (phase << 32)));
            let mut request = (phase << 48) | (1 << 47);
            for cycle in 0u32.. {
                let start = t0 + sizes.period * cycle;
                if start >= deadline {
                    break;
                }
                if let Some(wait) = start.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let scale = HostScale::start();
                let cycle_started = Instant::now();
                let problems = log.mismatches.len();
                let first = committed.end();
                let mut id = first;
                while id < first + sizes.bulk_rows {
                    let n = sizes.batch_rows.min(first + sizes.bulk_rows - id);
                    let values: Vec<String> = (id..id + n)
                        .map(|i| {
                            let v = big_v(seed, i);
                            format!("({i}, {v}, '{}')", big_name(v))
                        })
                        .collect();
                    let sql = format!("INSERT INTO big VALUES {}", values.join(", "));
                    request += 1;
                    log.bulk_statements += 1;
                    match execute(&mut session, tracer, "exec.bulk_insert", request, &sql) {
                        Ok(k) if k == n as u64 => committed.ranges.push(id..id + n),
                        Ok(k) => {
                            log.bulk_failed += 1;
                            log.mismatches
                                .push(format!("bulk insert of {n} rows affected {k}"));
                        }
                        Err(e) => {
                            log.bulk_failed += 1;
                            log.mismatches.push(format!("bulk insert: {e}"));
                        }
                    }
                    id += n;
                }

                request += 1;
                let started = Instant::now();
                let stats = match tracer {
                    Some(t) => t.span("storage.checkpoint", request, 0, |_| db.checkpoint()),
                    None => db.checkpoint(),
                };
                let ended = Instant::now();
                if let Err(e) = &stats {
                    log.mismatches.push(format!("checkpoint: {e}"));
                }
                log.checkpoints
                    .push((since(started), since(ended), stats.ok()));

                for _ in 0..SCANS_PER_CYCLE {
                    let rows = committed.end();
                    let lo = rng.gen_range(0..=rows / 4);
                    let hi = lo + (rows * 3 + 3) / 4;
                    let sql =
                        format!("SELECT count(*), sum(v) FROM big WHERE id >= {lo} AND id < {hi}");
                    request += 1;
                    let started = Instant::now();
                    let got = match tracer {
                        Some(t) => t.span("exec.cold_scan", request, 0, |_| count_sum(db, &sql)),
                        None => count_sum(db, &sql),
                    };
                    let elapsed = started.elapsed().as_secs_f64();
                    let want = committed.expect(seed, lo, hi);
                    let ok = match got {
                        Ok(got) if got == want => true,
                        Ok(got) => {
                            log.mismatches
                                .push(format!("{sql}: got {got:?}, expected {want:?}"));
                            false
                        }
                        Err(e) => {
                            log.mismatches.push(format!("{sql}: {e}"));
                            false
                        }
                    };
                    log.scans.push(if ok { elapsed } else { f64::INFINITY });
                }
                let busy = if log.mismatches.len() == problems {
                    cycle_started.elapsed().as_secs_f64()
                } else {
                    f64::INFINITY
                };
                log.cycles.push(busy);
                log.scaled_cycles.push(busy * scale.finish());
            }
            log
        });
        (
            writer.join().expect("open-loop writer panicked"),
            loader.join().expect("bulk loader panicked"),
        )
    });
    PhaseLog {
        commits: a.commits,
        acked_ticks: a.acked_ticks,
        mismatches: a.mismatches.into_iter().chain(b.mismatches).collect(),
        ..b
    }
}

/// Largest delay of a commit that was due while a checkpoint ran.
fn checkpoint_stall(log: &PhaseLog) -> f64 {
    log.commits
        .iter()
        .filter(|c| {
            log.checkpoints
                .iter()
                .any(|(start, end, _)| c.due >= *start && c.due <= *end)
        })
        .map(|c| c.latency)
        .fold(0.0, f64::max)
}

pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>, out: &mut Outcome) -> BenchResult<()> {
    let sizes = Sizes::new(cfg);
    out.provenance("sizes", sizes.describe());
    out.provenance("sync_mode", "Commit");
    out.provenance("buffer_pool_bytes", sizes.pool_bytes);
    out.provenance(
        "open_loop_rate",
        format!("{}/s single-row autocommits", sizes.rate),
    );
    let (mut setup, setups) = repeat_setup(|| setup(&sizes, cfg.seed))?;
    let decoded = setup.preload.sealed_raw_bytes;
    out.check(
        "sealed big is at least 4x the buffer pool",
        decoded >= 4 * sizes.pool_bytes as u64,
        format!(
            "{decoded} decoded bytes in {} segments vs a {}-byte pool",
            setup.preload.segments_sealed, sizes.pool_bytes
        ),
    );
    let db = setup.db.take().expect("set-up opened the database");
    let mut committed = Committed {
        ranges: std::iter::once(0..sizes.preload).collect(),
    };

    let mut logs = vec![run_phase(
        &db,
        &sizes,
        cfg.seed,
        0,
        cfg.untraced_seconds(),
        &mut committed,
        None,
    )];
    let untraced_commits: Vec<f64> = logs[0].commits.iter().map(|c| c.latency).collect();
    let mut probes = 0;
    let mut counters = None;
    if let Some(tracer) = tracer {
        let before = db.metrics_snapshot();
        probes = layers::commit_probes(tracer, &mut db.session(), COMMIT_PROBES, out);
        logs.push(run_phase(
            &db,
            &sizes,
            cfg.seed,
            1,
            cfg.traced_seconds(),
            &mut committed,
            Some(tracer),
        ));
        replay_scans(tracer, &db, cfg.seed, &committed, out)?;
        counters = Some(Counters::new(vec![(before, db.metrics_snapshot())]));
    }

    // Space: bytes on disk over logical bytes of every row inserted.
    let ticks: usize = logs.iter().map(|l| l.acked_ticks.len()).sum();
    let logical: u64 = committed
        .ranges
        .iter()
        .flat_map(|r| r.clone())
        .map(|id| big_row_bytes(big_v(cfg.seed, id)))
        .sum::<u64>()
        + 16 * ticks as u64
        + 8 * probes as u64;
    let on_disk = dir_bytes(setup.dir.path())?;

    // Crash-style restart: drop without close(), reopen, count and sum.
    drop(db);
    let reopen_started = Instant::now();
    let db = open(setup.dir.path(), sizes.pool_bytes)?;
    let recovery_ms = reopen_started.elapsed().as_secs_f64() * 1e3;
    let want_big = committed.expect(cfg.seed, 0, i64::MAX);
    let got_big = count_sum(&db, "SELECT count(*), sum(v) FROM big")?;
    out.check(
        "reopened big holds every acknowledged row",
        got_big == want_big,
        format!("got (count, sum) {got_big:?}, acknowledged {want_big:?}"),
    );
    let want_ticks = (
        ticks as i64,
        logs.iter()
            .flat_map(|l| &l.acked_ticks)
            .map(|(_, v)| v)
            .sum::<i64>(),
    );
    let got_ticks = count_sum(&db, "SELECT count(*), sum(v) FROM ticks")?;
    out.check(
        "reopened ticks holds every acknowledged commit",
        got_ticks == want_ticks,
        format!("got (count, sum) {got_ticks:?}, acknowledged {want_ticks:?}"),
    );
    let want_probes = (probes as i64, (0..probes as i64).sum::<i64>());
    let got_probes = count_sum(&db, "SELECT count(*), sum(id) FROM probe")?;
    out.check(
        "reopened probe holds every acknowledged commit",
        got_probes == want_probes,
        format!("got (count, sum) {got_probes:?}, acknowledged {want_probes:?}"),
    );
    drop(db);

    let mismatches: Vec<&String> = logs.iter().flat_map(|l| &l.mismatches).collect();
    out.check(
        "every commit, bulk insert, checkpoint and scan succeeded with the right answer",
        mismatches.is_empty(),
        match mismatches.first() {
            Some(m) => format!("{} problems; first: {m}", mismatches.len()),
            None => format!(
                "{} commits, {} bulk statements, {} checkpoints, {} scans",
                logs.iter().map(|l| l.commits.len()).sum::<usize>(),
                logs.iter().map(|l| l.bulk_statements).sum::<u64>(),
                logs.iter().map(|l| l.checkpoints.len()).sum::<usize>(),
                logs.iter().map(|l| l.scans.len()).sum::<usize>(),
            ),
        },
    );
    for log in &logs {
        out.attempted += log.commits.len() as u64
            + log.bulk_statements
            + log.checkpoints.len() as u64
            + log.scans.len() as u64;
        out.failed += log
            .commits
            .iter()
            .filter(|c| !c.latency.is_finite())
            .count() as u64
            + log.bulk_failed
            + log.checkpoints.iter().filter(|c| c.2.is_none()).count() as u64
            + log.scans.iter().filter(|s| !s.is_finite()).count() as u64;
    }

    let checkpoint_ms: Vec<f64> = logs[0]
        .checkpoints
        .iter()
        .map(|(s, e, stats)| {
            if stats.is_some() {
                (e - s) * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    setups.report(out, false);
    out.median("op_ms", &logs[0].scaled_cycles, 1e3, "ms");
    out.median("op_wall_ms", &logs[0].cycles, 1e3, "ms");
    out.median("commit_p50_ms", &untraced_commits, 1e3, "ms");
    out.tail("commit_p99_ms", &untraced_commits, 99.0, 1e3, "ms");
    out.median("checkpoint_ms", &checkpoint_ms, 1.0, "ms");
    out.median("cold_scan_ms", &logs[0].scans, 1e3, "ms");
    out.metric_with(
        "space_amp",
        on_disk as f64 / logical as f64,
        "ratio",
        1,
        format!("{on_disk} bytes on disk / {logical} logical bytes"),
    );
    if let (Some(tracer), Some(counters)) = (tracer, counters) {
        counters.report(out);
        layers::segment_codec(tracer, &big_chunk(&sizes, cfg.seed), sizes.pool_bytes, out)?;
        layers::report_spans(tracer, out);
        let all_checkpoints: Vec<&CheckpointStats> = logs
            .iter()
            .flat_map(|l| &l.checkpoints)
            .filter_map(|c| c.2.as_ref())
            .collect();
        let sealed_mb: Vec<f64> = all_checkpoints
            .iter()
            .map(|s| s.segment_bytes as f64 / (1024.0 * 1024.0))
            .collect();
        out.median("storage.checkpoint.sealed_mb", &sealed_mb, 1.0, "MiB");
        let stall = logs.iter().map(checkpoint_stall).fold(0.0, f64::max);
        out.metric(
            "storage.checkpoint.stall_ms",
            stall * 1e3,
            "ms",
            all_checkpoints.len(),
        );
        out.metric("storage.recovery_ms", recovery_ms, "ms", 1);
        let late: Vec<f64> = logs
            .iter()
            .flat_map(|l| &l.commits)
            .filter_map(|c| c.wake_late)
            .collect();
        out.tail("gen.late_ms", &late, 99.0, 1e3, "ms");
        let traced_commits: Vec<f64> = logs[1].commits.iter().map(|c| c.latency).collect();
        if let (Some(u), Some(t)) = (median(&untraced_commits), median(&traced_commits)) {
            layers::report_overhead(
                out,
                u * 1e6,
                t * 1e6,
                traced_commits.len(),
                "commit p50 from due, us",
            );
        }
    }
    if let Some(t) = tail(&untraced_commits, 99.0) {
        out.provenance("commit_tail_percentile", t.pct);
    }
    out.provenance("recovery_ms", format!("{recovery_ms:.3}"));
    Ok(())
}

/// A chunk shaped like one sealed segment of `big`.
fn big_chunk(sizes: &Sizes, seed: u64) -> Chunk {
    let ids: Vec<i64> = (0..sizes.bulk_rows).collect();
    let vs: Vec<i64> = ids.iter().map(|&id| big_v(seed, id)).collect();
    let names: Vec<String> = vs.iter().map(|&v| big_name(v)).collect();
    Chunk::new(vec![
        ColumnVector::from_i64(ids),
        ColumnVector::from_i64(vs),
        ColumnVector::from_str(names),
    ])
}

/// Cold range aggregates over three quarters of `big`, through the
/// layers one call at a time, each answer checked.
fn replay_scans(
    tracer: &Tracer,
    db: &Database,
    seed: u64,
    committed: &Committed,
    out: &mut Outcome,
) -> BenchResult<()> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5ca));
    let mut totals = ExecTotals::default();
    let mut mismatches = Vec::new();
    let rows = committed.end();
    for pass in 0..REPLAY_PASSES {
        totals.pass();
        for scan in 0..SCANS_PER_CYCLE {
            let lo = rng.gen_range(0..=rows / 4);
            let hi = lo + (rows * 3 + 3) / 4;
            let sql = format!("SELECT count(*), sum(v) FROM big WHERE id >= {lo} AND id < {hi}");
            out.attempted += 1;
            let request = (1 << 62) | (pass * SCANS_PER_CYCLE + scan) as u64;
            let got = execute_layered(tracer, db, &sql, request).and_then(|run| {
                totals.add(&run);
                let chunk = run
                    .chunks
                    .iter()
                    .find(|c| !c.is_empty())
                    .ok_or_else(|| HyError::Internal("an aggregate returned no row".into()))?;
                Ok((
                    chunk.column(0).value(0).as_int().unwrap_or(0),
                    chunk.column(1).value(0).as_int().unwrap_or(0),
                ))
            });
            let want = committed.expect(seed, lo, hi);
            match got {
                Ok(got) if got == want => {}
                Ok(got) => mismatches.push(format!("{sql}: got {got:?}, expected {want:?}")),
                Err(e) => mismatches.push(format!("{sql}: {e}")),
            }
        }
    }
    totals.report(out);
    out.failed += mismatches.len() as u64;
    out.check(
        "layered cold scans match the generator's sums",
        mismatches.is_empty(),
        match mismatches.first() {
            Some(m) => format!("{} mismatches; first: {m}", mismatches.len()),
            None => format!("{} scans", REPLAY_PASSES * SCANS_PER_CYCLE),
        },
    );
    Ok(())
}
