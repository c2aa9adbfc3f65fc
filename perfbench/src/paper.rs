//! `paper-analytics`: the paper's §8 comparison, embedded, one caller,
//! closed loop.
//!
//! Each round runs six formulations: k-Means at Table 1's starred point
//! (scaled to n = 40k, d = 10, k = 5, i = 3) as the KMEANS operator, as
//! KMEANS with an L2 `LAMBDA` and as ITERATE; PageRank (d = 0.85, 45
//! iterations) on the 73k-vertex / 4.6M-edge LDBC-like graph at the same
//! 1% scale as the PAGERANK operator and as ITERATE; Naive Bayes training
//! as SQL at n = 40k, d = 10. A formulation faster than [`MIN_SLICE`] repeats
//! within the round so every median rests on several samples.
//!
//! Every answer is checked: the three k-Means centers agree through the
//! checksums `hylite_bench::systems` computes, the ITERATE PageRank ranks
//! sum to 1 and match the operator's vertex by vertex, and the SQL Naive
//! Bayes model matches `NAIVE_BAYES_TRAIN`'s.
//!
//! The unit of work behind `op_ms` is one pass over the six formulations:
//! `op_ms` is the sum of their median times. The workload is compute-
//! and memory-bound in one thread, so its wall times follow the shared
//! host's speed, which drifts by ±20% over minutes; `op_ms` and
//! `setup_s` are therefore host-scaled (see [`crate::host::HostScale`]),
//! and the wall times are printed beside them as `op_wall_ms` and
//! `setup_wall_s`. Set-up includes one warm-up execution of each
//! formulation.
//!
//! The traced phase runs each formulation through the layers one call at
//! a time (see [`crate::layers`]) and times the analytics kernels and the
//! CSR build on their own.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use hylite_analytics::{KMeansConfig, PageRankConfig};
use hylite_bench::queries;
use hylite_bench::systems::{self, System};
use hylite_bench::workloads::{self, KMeansContext, NaiveBayesContext, PageRankContext};
use hylite_common::{Chunk, HyError, Result};
use hylite_core::{Database, DurabilityOptions};
use hylite_datagen::table1::KMeansExperiment;
use hylite_graph::{CsrGraph, LdbcConfig};

use crate::host::HostScale;
use crate::layers::{self, execute_layered, Counters, ExecTotals};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeat_setup, BenchResult, RunConfig};

const DAMPING: f64 = 0.85;

/// The medium LDBC graph (73k vertices, 4.6M directed edges) at the
/// same 1% scale as the k-Means point (4M → 40k tuples): 730 vertices
/// and ~46k directed edges. At full size one ITERATE execution takes
/// minutes on two cores.
const GRAPH_SCALE: f64 = 0.01;

/// A formulation repeats within a round until it has run this long.
const MIN_SLICE: Duration = Duration::from_millis(100);

/// Relative agreement required between k-Means checksums and Naive
/// Bayes model checksums (as in `hylite_bench::systems`' own tests).
const CHECKSUM_TOLERANCE: f64 = 1e-6;

/// Largest per-vertex rank difference allowed between PageRank
/// formulations.
const RANK_TOLERANCE: f64 = 1e-9;

/// Idle in-memory autocommits timed in the traced phase.
const COMMIT_PROBES: usize = 200;

struct Sizes {
    kmeans: KMeansExperiment,
    graph: LdbcConfig,
    pagerank_iterations: usize,
    nb_rows: usize,
    nb_dims: usize,
}

impl Sizes {
    fn new(cfg: &RunConfig) -> Sizes {
        if cfg.smoke {
            Sizes {
                kmeans: KMeansExperiment {
                    n: 400,
                    d: 3,
                    k: 3,
                    iterations: 3,
                },
                graph: LdbcConfig {
                    vertices: 200,
                    edges: 1_200,
                    triangle_fraction: 0.3,
                    seed: cfg.seed,
                },
                pagerank_iterations: 5,
                nb_rows: 500,
                nb_dims: 3,
            }
        } else {
            Sizes {
                kmeans: KMeansExperiment {
                    n: 40_000,
                    d: 10,
                    k: 5,
                    iterations: 3,
                },
                graph: LdbcConfig {
                    seed: cfg.seed,
                    ..LdbcConfig::paper_medium().scaled(GRAPH_SCALE)
                },
                pagerank_iterations: 45,
                nb_rows: 40_000,
                nb_dims: 10,
            }
        }
    }

    fn describe(&self) -> String {
        let k = &self.kmeans;
        format!(
            "kmeans n={} d={} k={} i={}; pagerank vertices={} friendships={} iterations={}; \
             naive_bayes n={} d={}",
            k.n,
            k.d,
            k.k,
            k.iterations,
            self.graph.vertices,
            self.graph.edges,
            self.pagerank_iterations,
            self.nb_rows,
            self.nb_dims
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Formulation {
    KMeansOperator,
    KMeansLambda,
    KMeansIterate,
    PageRankOperator,
    PageRankIterate,
    NaiveBayesSql,
}

const FORMULATIONS: [Formulation; 6] = [
    Formulation::KMeansOperator,
    Formulation::KMeansLambda,
    Formulation::KMeansIterate,
    Formulation::PageRankOperator,
    Formulation::PageRankIterate,
    Formulation::NaiveBayesSql,
];

impl Formulation {
    fn name(self) -> &'static str {
        match self {
            Formulation::KMeansOperator => "kmeans_operator",
            Formulation::KMeansLambda => "kmeans_lambda",
            Formulation::KMeansIterate => "kmeans_iterate",
            Formulation::PageRankOperator => "pagerank_operator",
            Formulation::PageRankIterate => "pagerank_iterate",
            Formulation::NaiveBayesSql => "naive_bayes_sql",
        }
    }
}

/// KMEANS with the squared L2 distance spelled out as a λ-expression:
/// the same answer as the built-in kernel, through the lambda path.
fn kmeans_lambda_sql(d: usize, iterations: usize) -> String {
    let cols = |alias: &str| {
        (0..d)
            .map(|i| format!("{alias}.c{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let l2 = (0..d)
        .map(|i| format!("(a.c{i} - b.c{i})^2"))
        .collect::<Vec<_>>()
        .join(" + ");
    format!(
        "SELECT * FROM KMEANS((SELECT {} FROM data d), (SELECT {} FROM centers ct), \
         LAMBDA(a, b) {l2}, {iterations})",
        cols("d"),
        cols("ct")
    )
}

/// The data sets, loaded, plus the reference answers every formulation
/// is checked against.
struct Data {
    sizes: Sizes,
    km: KMeansContext,
    pr: PageRankContext,
    nb: NaiveBayesContext,
    sql: BTreeMap<Formulation, String>,
    /// KMEANS operator checksum (sum of every center coordinate).
    kmeans_reference: f64,
    /// PAGERANK operator ranks by vertex.
    ranks_reference: HashMap<i64, f64>,
    /// NAIVE_BAYES_TRAIN model checksum.
    nb_reference: f64,
}

fn setup(sizes: Sizes, seed: u64) -> BenchResult<Data> {
    let km = workloads::setup_kmeans(sizes.kmeans, seed)?;
    let pr = workloads::setup_pagerank(&sizes.graph)?;
    let nb = workloads::setup_naive_bayes(sizes.nb_rows, sizes.nb_dims, seed)?;
    km.db.execute("CREATE TABLE probe (id BIGINT)")?;
    let (d, iters) = (sizes.kmeans.d, sizes.kmeans.iterations);
    let sql: BTreeMap<Formulation, String> = [
        (
            Formulation::KMeansOperator,
            queries::kmeans_operator(d, iters),
        ),
        (Formulation::KMeansLambda, kmeans_lambda_sql(d, iters)),
        (
            Formulation::KMeansIterate,
            queries::kmeans_iterate(d, iters),
        ),
        (
            Formulation::PageRankOperator,
            queries::pagerank_operator(DAMPING, sizes.pagerank_iterations),
        ),
        (
            Formulation::PageRankIterate,
            queries::pagerank_iterate(pr.vertices, DAMPING, sizes.pagerank_iterations),
        ),
        (Formulation::NaiveBayesSql, queries::naive_bayes_sql(nb.d)),
    ]
    .into_iter()
    .collect();
    // The reference answers and one checked execution of each
    // formulation (below) are the warm-up.
    let (_, kmeans_reference) = systems::run_kmeans(System::HyperOperator, &km)?;
    let ranks = pr.db.execute(&sql[&Formulation::PageRankOperator])?;
    let ranks_reference = rank_map(ranks.chunks())?;
    let (_, nb_reference) = systems::run_naive_bayes(System::HyperOperator, &nb)?;
    let data = Data {
        sizes,
        km,
        pr,
        nb,
        sql,
        kmeans_reference,
        ranks_reference,
        nb_reference,
    };
    for f in FORMULATIONS {
        let (_, answer) = data.run(f)?;
        data.verify(f, &answer)
            .map_err(|e| format!("warm-up {}: {e}", f.name()))?;
    }
    Ok(data)
}

impl Data {
    fn db(&self, f: Formulation) -> &Database {
        match f {
            Formulation::KMeansOperator
            | Formulation::KMeansLambda
            | Formulation::KMeansIterate => &self.km.db,
            Formulation::PageRankOperator | Formulation::PageRankIterate => &self.pr.db,
            Formulation::NaiveBayesSql => &self.nb.db,
        }
    }

    /// Run `f` untraced, the way an embedding application would: one
    /// `Database::execute` call, timed by `hylite_bench::systems` where
    /// it has a runner for the formulation.
    fn run(&self, f: Formulation) -> Result<(Duration, Answer)> {
        match f {
            Formulation::KMeansOperator => systems::run_kmeans(System::HyperOperator, &self.km)
                .map(|(t, sum)| (t, Answer::Checksum(sum))),
            Formulation::KMeansIterate => systems::run_kmeans(System::HyperIterate, &self.km)
                .map(|(t, sum)| (t, Answer::Checksum(sum))),
            Formulation::NaiveBayesSql => systems::run_naive_bayes(System::HyperSql, &self.nb)
                .map(|(t, sum)| (t, Answer::Checksum(sum))),
            Formulation::KMeansLambda
            | Formulation::PageRankOperator
            | Formulation::PageRankIterate => {
                let started = Instant::now();
                let result = self.db(f).execute(&self.sql[&f])?;
                let elapsed = started.elapsed();
                Ok((elapsed, self.answer(f, result.chunks())?))
            }
        }
    }

    /// The checkable part of `f`'s result relation.
    fn answer(&self, f: Formulation, chunks: &[Chunk]) -> Result<Answer> {
        match f {
            // KMEANS: (cluster_id, c0.., size); ITERATE: (cid, c0.., i).
            Formulation::KMeansOperator
            | Formulation::KMeansLambda
            | Formulation::KMeansIterate => {
                let mut sum = 0.0;
                for chunk in chunks {
                    for c in 1..=self.sizes.kmeans.d {
                        sum += chunk.column(c).as_f64()?.iter().sum::<f64>();
                    }
                }
                Ok(Answer::Checksum(sum))
            }
            Formulation::PageRankOperator | Formulation::PageRankIterate => {
                Ok(Answer::Ranks(rank_map(chunks)?))
            }
            Formulation::NaiveBayesSql => Err(HyError::Internal(
                "the Naive Bayes checksum comes from hylite_bench::systems".into(),
            )),
        }
    }

    /// How far `answer` is from the reference; `Err` names the mismatch.
    fn verify(&self, f: Formulation, answer: &Answer) -> std::result::Result<f64, String> {
        match answer {
            Answer::Checksum(sum) => {
                let reference = match f {
                    Formulation::NaiveBayesSql => self.nb_reference,
                    _ => self.kmeans_reference,
                };
                let dev = (sum - reference).abs() / reference.abs().max(1.0);
                if dev <= CHECKSUM_TOLERANCE {
                    Ok(dev)
                } else {
                    Err(format!("checksum {sum} vs reference {reference}"))
                }
            }
            Answer::Ranks(ranks) => {
                let total: f64 = ranks.values().sum();
                if (total - 1.0).abs() > 1e-6 {
                    return Err(format!("ranks sum to {total}, not 1"));
                }
                if ranks.len() != self.ranks_reference.len() {
                    return Err(format!(
                        "{} ranked vertices vs {} from PAGERANK",
                        ranks.len(),
                        self.ranks_reference.len()
                    ));
                }
                let mut worst = 0.0f64;
                for (v, r) in ranks {
                    let Some(reference) = self.ranks_reference.get(v) else {
                        return Err(format!("vertex {v} is not ranked by PAGERANK"));
                    };
                    worst = worst.max((r - reference).abs());
                }
                if worst <= RANK_TOLERANCE {
                    Ok(worst)
                } else {
                    Err(format!("a rank differs from PAGERANK's by {worst:e}"))
                }
            }
        }
    }
}

enum Answer {
    Checksum(f64),
    Ranks(HashMap<i64, f64>),
}

/// PageRank results: (vertex, rank, ...) → rank by vertex.
fn rank_map(chunks: &[Chunk]) -> Result<HashMap<i64, f64>> {
    let mut ranks = HashMap::new();
    for chunk in chunks {
        let vertices = chunk.column(0).as_i64()?;
        let values = chunk.column(1).as_f64()?;
        ranks.extend(vertices.iter().copied().zip(values.iter().copied()));
    }
    Ok(ranks)
}

/// Agreement bookkeeping of one formulation over a run.
#[derive(Default)]
struct Verdicts {
    executions: usize,
    worst: f64,
    first_error: Option<String>,
}

impl Verdicts {
    fn record(&mut self, verdict: std::result::Result<f64, String>) {
        self.executions += 1;
        match verdict {
            Ok(dev) => self.worst = self.worst.max(dev),
            Err(e) => {
                self.first_error.get_or_insert(e);
            }
        }
    }
}

/// Self-time (ms) and rows-in samples of one operator kind.
type OpSamples = (Vec<f64>, Vec<f64>);

pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>, out: &mut Outcome) -> BenchResult<()> {
    let sizes = Sizes::new(cfg);
    out.provenance("sizes", sizes.describe());
    out.provenance("sync_mode", "none (in-memory database)");
    out.provenance("buffer_pool_bytes", "none (in-memory database)");
    out.provenance("open_loop_rate", "none (closed loop, one caller)");
    let (data, setups) = repeat_setup(|| setup(Sizes::new(cfg), cfg.seed))?;
    out.provenance("directed_edges", data.pr.src.len());

    // Untraced phase: the end-to-end numbers.
    let mut times: BTreeMap<Formulation, Vec<f64>> = BTreeMap::new();
    let mut scaled: BTreeMap<Formulation, Vec<f64>> = BTreeMap::new();
    let mut verdicts: BTreeMap<Formulation, Verdicts> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.untraced_seconds());
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        for f in FORMULATIONS {
            let first = times.get(&f).map_or(0, Vec::len);
            let scale = HostScale::start();
            let slice = Instant::now();
            let mut reps = 0;
            while reps == 0 || slice.elapsed() < MIN_SLICE {
                reps += 1;
                out.attempted += 1;
                let samples = times.entry(f).or_default();
                match data.run(f) {
                    Ok((t, answer)) => {
                        samples.push(t.as_secs_f64());
                        verdicts
                            .entry(f)
                            .or_default()
                            .record(data.verify(f, &answer));
                    }
                    Err(e) => {
                        out.failed += 1;
                        samples.push(f64::INFINITY);
                        verdicts.entry(f).or_default().record(Err(e.to_string()));
                    }
                }
            }
            let k = scale.finish();
            let new: Vec<f64> = times[&f][first..].iter().map(|t| t * k).collect();
            scaled.entry(f).or_default().extend(new);
        }
    }
    out.provenance("rounds", rounds);

    setups.report(out, true);
    for f in FORMULATIONS {
        out.median(&format!("{}_ms", f.name()), &times[&f], 1e3, "ms");
    }
    let samples = times.values().map(Vec::len).min().unwrap_or(0);
    for (name, by_formulation) in [("op_ms", &scaled), ("op_wall_ms", &times)] {
        let medians: Vec<f64> = FORMULATIONS
            .iter()
            .filter_map(|f| median(&by_formulation[f]))
            .collect();
        if medians.len() == FORMULATIONS.len() {
            out.metric_with(
                name,
                medians.iter().sum::<f64>() * 1e3,
                "ms",
                samples,
                "sum of the six formulations' medians".into(),
            );
        }
    }
    if let Some(tracer) = tracer {
        traced_phase(cfg, tracer, &data, &times, &mut verdicts, out)?;
    }

    for f in FORMULATIONS {
        let v = verdicts.remove(&f).unwrap_or_default();
        let what = match f {
            Formulation::KMeansOperator
            | Formulation::KMeansLambda
            | Formulation::KMeansIterate => "centers agree with KMEANS",
            Formulation::PageRankOperator | Formulation::PageRankIterate => {
                "ranks sum to 1 and match PAGERANK"
            }
            Formulation::NaiveBayesSql => "model matches NAIVE_BAYES_TRAIN",
        };
        let detail = match &v.first_error {
            Some(e) => e.clone(),
            None => format!("{} executions, worst deviation {:e}", v.executions, v.worst),
        };
        out.check(
            &format!("{} {what}", f.name()),
            v.first_error.is_none() && v.executions > 0,
            detail,
        );
    }
    Ok(())
}

fn traced_phase(
    cfg: &RunConfig,
    tracer: &Tracer,
    data: &Data,
    times: &BTreeMap<Formulation, Vec<f64>>,
    verdicts: &mut BTreeMap<Formulation, Verdicts>,
    out: &mut Outcome,
) -> BenchResult<()> {
    let untraced_ms: BTreeMap<Formulation, f64> = times
        .iter()
        .map(|(f, v)| (*f, median(v).unwrap_or(f64::NAN) * 1e3))
        .collect();
    let d = data.sizes.kmeans.d;
    let columns: Vec<String> = (0..d).map(|i| format!("c{i}")).collect();
    let points = data
        .km
        .db
        .execute(&format!("SELECT {} FROM data", columns.join(", ")))?
        .into_chunks();
    let kmeans_config = KMeansConfig {
        max_iterations: data.sizes.kmeans.iterations,
    };
    let pagerank_config = PageRankConfig {
        damping: DAMPING,
        epsilon: 0.0,
        max_iterations: data.sizes.pagerank_iterations,
    };

    let dbs = [&data.km.db, &data.pr.db, &data.nb.db];
    let before: Vec<_> = dbs.iter().map(|db| db.metrics_snapshot()).collect();
    let mut totals = ExecTotals::default();
    let mut statement_ms: BTreeMap<Formulation, Vec<f64>> = BTreeMap::new();
    let mut ops: BTreeMap<(Formulation, &'static str), OpSamples> = BTreeMap::new();
    let mut project_ns_per_row = Vec::new();
    let mut kernel_verdicts = Verdicts::default();
    let mut request = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.traced_seconds());
    while request == 0 || Instant::now() < deadline {
        totals.pass();
        for f in FORMULATIONS {
            request += 1;
            out.attempted += 1;
            let started = Instant::now();
            let traced = execute_layered(tracer, data.db(f), &data.sql[&f], request);
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            let traced = match traced {
                Ok(t) => t,
                Err(e) => {
                    out.failed += 1;
                    verdicts.entry(f).or_default().record(Err(e.to_string()));
                    continue;
                }
            };
            statement_ms.entry(f).or_default().push(elapsed_ms);
            totals.add(&traced);
            let verdict = match f {
                Formulation::NaiveBayesSql => nb_checksum(&traced.chunks)
                    .and_then(|sum| data.verify(f, &Answer::Checksum(sum))),
                _ => data
                    .answer(f, &traced.chunks)
                    .map_err(|e| e.to_string())
                    .and_then(|a| data.verify(f, &a)),
            };
            verdicts.entry(f).or_default().record(verdict);
            if !matches!(
                f,
                Formulation::KMeansIterate
                    | Formulation::PageRankIterate
                    | Formulation::NaiveBayesSql
            ) {
                continue;
            }
            for (kind, (self_ms, rows_in)) in traced.by_kind() {
                let entry = ops.entry((f, kind)).or_default();
                entry.0.push(self_ms);
                entry.1.push(rows_in);
                if f == Formulation::KMeansIterate && kind == "project" && rows_in > 0.0 {
                    project_ns_per_row.push(self_ms * 1e6 / rows_in);
                }
            }
        }

        // The kernels alone, on pre-scanned points and a prebuilt CSR.
        request += 1;
        out.attempted += 1;
        let km = tracer.span("analytics.kmeans", request, 0, |_| {
            hylite_analytics::kmeans(&points, data.km.centers.clone(), None, &kmeans_config)
        });
        match km {
            Ok(result) => {
                let sum: f64 = result.centers.iter().flatten().sum();
                kernel_verdicts
                    .record(data.verify(Formulation::KMeansOperator, &Answer::Checksum(sum)));
            }
            Err(e) => {
                out.failed += 1;
                kernel_verdicts.record(Err(e.to_string()));
            }
        }
        request += 1;
        out.attempted += 1;
        let csr = tracer.span("graph.csr_build", request, 0, |_| {
            CsrGraph::from_edges(&data.pr.src, &data.pr.dest)
        });
        match csr {
            Ok(csr) => {
                let result = tracer.span("analytics.pagerank", request, 0, |_| {
                    hylite_analytics::pagerank(&csr, &pagerank_config)
                });
                let total: f64 = result.ranks.iter().sum();
                kernel_verdicts.record(if (total - 1.0).abs() <= 1e-6 {
                    Ok((total - 1.0).abs())
                } else {
                    Err(format!("kernel ranks sum to {total}"))
                });
            }
            Err(e) => {
                out.failed += 1;
                kernel_verdicts.record(Err(e.to_string()));
            }
        }
    }
    let after: Vec<_> = dbs.iter().map(|db| db.metrics_snapshot()).collect();
    Counters::new(before.into_iter().zip(after).collect()).report(out);
    totals.report(out);
    layers::commit_probes(tracer, &mut data.km.db.session(), COMMIT_PROBES, out);
    let sample = data.km.db.execute("SELECT * FROM data")?.to_chunk()?;
    layers::segment_codec(
        tracer,
        &sample,
        DurabilityOptions::default().buffer_pool_bytes,
        out,
    )?;
    layers::report_spans(tracer, out);
    out.check(
        "analytics kernels agree with the operators",
        kernel_verdicts.first_error.is_none(),
        kernel_verdicts.first_error.clone().unwrap_or_else(|| {
            format!(
                "{} kernel runs, worst deviation {:e}",
                kernel_verdicts.executions, kernel_verdicts.worst
            )
        }),
    );

    for ((f, kind), (self_ms, rows_in)) in &ops {
        out.median(
            &format!("exec.{}.{kind}.self_ms", f.name()),
            self_ms,
            1.0,
            "ms",
        );
        out.median(
            &format!("exec.{}.{kind}.rows_in", f.name()),
            rows_in,
            1.0,
            "rows",
        );
    }
    out.median("expr.project_ns_per_row", &project_ns_per_row, 1.0, "ns");
    let lambda = untraced_ms[&Formulation::KMeansLambda];
    let operator = untraced_ms[&Formulation::KMeansOperator];
    out.metric_with(
        "expr.lambda_over_kernel",
        lambda / operator,
        "ratio",
        1,
        format!("kmeans_lambda_ms {lambda:.3} / kmeans_operator_ms {operator:.3}"),
    );
    let kmeans_kernel = tracer.durations_us("analytics.kmeans");
    let pagerank_kernel = tracer.durations_us("analytics.pagerank");
    out.median("analytics.kmeans_kernel_ms", &kmeans_kernel, 1e-3, "ms");
    out.median("analytics.pagerank_kernel_ms", &pagerank_kernel, 1e-3, "ms");
    if let (Some(k), Some(p)) = (median(&kmeans_kernel), median(&pagerank_kernel)) {
        out.metric_with(
            "analytics.kmeans_sql_overhead_ms",
            operator - k / 1e3,
            "ms",
            1,
            format!("kmeans_operator_ms {operator:.3} - kernel {:.3}", k / 1e3),
        );
        let pr_operator = untraced_ms[&Formulation::PageRankOperator];
        out.metric_with(
            "analytics.pagerank_sql_overhead_ms",
            pr_operator - p / 1e3,
            "ms",
            1,
            format!(
                "pagerank_operator_ms {pr_operator:.3} - kernel {:.3}",
                p / 1e3
            ),
        );
    }
    out.median(
        "graph.csr_build_ms",
        &tracer.durations_us("graph.csr_build"),
        1e-3,
        "ms",
    );
    // Overhead: the summed per-formulation medians, traced vs untraced.
    let untraced: f64 = untraced_ms.values().sum();
    let traced: f64 = statement_ms.values().filter_map(|v| median(v)).sum();
    layers::report_overhead(
        out,
        untraced,
        traced,
        statement_ms.values().map(Vec::len).sum(),
        "sum of the formulations' median ms",
    );
    Ok(())
}

/// The Naive Bayes model checksum of `hylite_bench::systems`, over raw
/// chunks: (class, attribute, prior, mean, stddev) rows; each class's
/// prior repeats once per attribute.
fn nb_checksum(chunks: &[Chunk]) -> std::result::Result<f64, String> {
    let mut classes = std::collections::HashSet::new();
    let (mut rows, mut priors, mut means) = (0usize, 0.0, 0.0);
    for chunk in chunks {
        rows += chunk.len();
        classes.extend((0..chunk.len()).map(|i| chunk.column(0).value(i).to_string()));
        priors += chunk
            .column(2)
            .as_f64()
            .map_err(|e| e.to_string())?
            .iter()
            .sum::<f64>();
        means += chunk
            .column(3)
            .as_f64()
            .map_err(|e| e.to_string())?
            .iter()
            .sum::<f64>();
    }
    if rows == 0 {
        return Err("empty model".into());
    }
    let attrs = rows / classes.len().max(1);
    Ok(priors / attrs.max(1) as f64 + means)
}
