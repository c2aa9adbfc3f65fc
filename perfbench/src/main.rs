//! `perfbench`: the repository benchmark.
//!
//! Three seeded workloads, each run in its own process by one command:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-analytics|wire-serving|durable-ingest> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! * `paper-analytics` ([`paper`]): the paper's §8 comparison, embedded.
//! * `wire-serving` ([`wire`]): a durable server on loopback, two clients.
//! * `durable-ingest` ([`ingest`]): open-loop commits beside bulk loads,
//!   checkpoints and cold scans over data larger than the buffer pool.
//!
//! Every workload reports the same metrics in its result line: with
//! `--trace 0` the end-to-end metrics ([`END_TO_END`]); with `--trace 1`
//! it measures untraced for half the time and traced for the other half,
//! and reports the per-layer metrics ([`PER_LAYER`], see [`layers`] and
//! [`trace`]). Every run checks the engine's answers; a failed check
//! fails the run. The last line of standard output is the JSON result;
//! the lines before it name every metric, including the workload's own
//! details, with its unit and sample count, and the provenance.
//! `--smoke` shrinks every size so the benchmark's own tests can run all
//! three workloads in seconds.

mod host;
mod ingest;
mod layers;
mod paper;
mod report;
mod stats;
mod trace;
mod wire;

use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage: perfbench --workload <paper-analytics|wire-serving|durable-ingest> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperAnalytics,
    WireServing,
    DurableIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperAnalytics,
        Workload::WireServing,
        Workload::DurableIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAnalytics => "paper-analytics",
            Workload::WireServing => "wire-serving",
            Workload::DurableIngest => "durable-ingest",
        }
    }
}

/// The result line of an untraced run, as `BENCHMARK.json` lists them
/// under `end_to_end`. Every workload reports each of them:
/// * `setup_s`: the median of the run's set-ups (see [`repeat_setup`]);
/// * `op_ms`: the median time of the workload's unit of work.
///
/// Each workload's module says what its unit of work is, and which of
/// the two is host-scaled (see [`host::HostScale`]).
pub const END_TO_END: [&str; 2] = ["setup_s", "op_ms"];

/// The result line of a traced run, as `BENCHMARK.json` lists them under
/// `per_layer`. Every workload reports each of them (see [`layers`]);
/// a count is zero where the workload does not use the layer.
pub const PER_LAYER: [&str; 23] = [
    "sql.parse_us",
    "planner.bind_us",
    "planner.optimize_us",
    "exec.scan.self_ms",
    "exec.scan.rows_in",
    "exec.aggregate.self_ms",
    "exec.aggregate.rows_in",
    "exec.join.rows_in",
    "exec.iterate.rows_in",
    "analytics.iterations",
    "core.commit_us",
    "wire.encode_us",
    "wire.decode_us",
    "storage.segment.encode_mb_s",
    "storage.segment.decode_mb_s",
    "storage.segment.compression_ratio",
    "storage.wal.commits",
    "storage.wal.fsyncs",
    "storage.pool.hits",
    "storage.pool.misses",
    "storage.scan.blocks_scanned",
    "storage.scan.blocks_pruned",
    "trace.overhead_pct",
];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured time of the run, setup excluded.
    pub seconds: f64,
    /// Measure per-layer metrics (half untraced, half traced).
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own tests.
    pub smoke: bool,
}

impl RunConfig {
    /// The metrics of this run's result line.
    pub fn result_metrics(&self) -> &'static [&'static str] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Length of the untraced measuring phase.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Length of the traced phase (zero in an untraced run).
    pub fn traced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            0.0
        }
    }
}

/// Set-up repetitions per run: at least [`SETUPS_MIN`], and more (up
/// to [`SETUPS_MAX`]) while they have taken less than [`SETUP_BUDGET`]
/// together, so that a fast set-up's median rests on many samples.
/// `setup_s` is their median.
pub const SETUPS_MIN: usize = 3;
pub const SETUPS_MAX: usize = 25;
pub const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(2);

/// The timings of a run's set-ups.
pub struct Setups {
    /// Wall seconds of each set-up.
    pub seconds: Vec<f64>,
    /// The same, host-scaled (see [`host::HostScale`]).
    pub scaled: Vec<f64>,
}

impl Setups {
    /// `setup_s`, the median set-up, host-scaled or in wall time as the
    /// workload chooses, and the other of the two as a detail
    /// (`setup_wall_s` or `setup_scaled_s`).
    pub fn report(&self, out: &mut Outcome, host_scaled: bool) {
        if host_scaled {
            out.median("setup_s", &self.scaled, 1.0, "s");
            out.median("setup_wall_s", &self.seconds, 1.0, "s");
        } else {
            out.median("setup_s", &self.seconds, 1.0, "s");
            out.median("setup_scaled_s", &self.scaled, 1.0, "s");
        }
    }
}

/// Run `setup` repeatedly (see [`SETUPS_MIN`]), dropping each result
/// before the next starts, and keep the last. Returns it with every
/// set-up's timing.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> BenchResult<T>) -> BenchResult<(T, Setups)> {
    let mut setups = Setups {
        seconds: Vec::with_capacity(SETUPS_MAX),
        scaled: Vec::with_capacity(SETUPS_MAX),
    };
    let mut kept = None;
    let started = std::time::Instant::now();
    while setups.seconds.len() < SETUPS_MIN
        || (setups.seconds.len() < SETUPS_MAX && started.elapsed() < SETUP_BUDGET)
    {
        drop(kept.take());
        let scale = host::HostScale::start();
        let one = std::time::Instant::now();
        kept = Some(setup()?);
        let seconds = one.elapsed().as_secs_f64();
        setups.seconds.push(seconds);
        setups.scaled.push(seconds * scale.finish());
    }
    Ok((kept.expect("SETUPS_MIN > 0"), setups))
}

fn parse_args(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            smoke,
        },
    ))
}

/// Run one workload in this process and collect its outcome. In a traced
/// run the spans are written to `out/trace-<workload>-<seed>.jsonl`.
pub fn run_workload(workload: Workload, cfg: &RunConfig) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    host::record_provenance(&mut out, workload.name(), cfg.seed, cfg.trace);
    out.provenance("smoke", cfg.smoke);
    out.provenance("seconds", cfg.seconds);
    let tracer = cfg.trace.then(Tracer::new);
    match workload {
        Workload::PaperAnalytics => paper::run(cfg, tracer.as_ref(), &mut out)?,
        Workload::WireServing => wire::run(cfg, tracer.as_ref(), &mut out)?,
        Workload::DurableIngest => ingest::run(cfg, tracer.as_ref(), &mut out)?,
    }
    if !cfg.trace {
        match host::peak_rss_mb() {
            Some(mb) => out.metric("peak_rss_mb", mb, "MiB", 1),
            None => out.check("peak RSS readable", false, "no VmHWM".into()),
        }
    }
    let missing: Vec<&str> = cfg
        .result_metrics()
        .iter()
        .copied()
        .filter(|name| !out.get(name).is_some_and(|m| m.value.is_finite()))
        .collect();
    out.check(
        "every result metric reported",
        missing.is_empty(),
        format!("missing or not finite: {missing:?}"),
    );
    out.check(
        "operations attempted",
        out.attempted > 0,
        format!("{} attempted, {} failed", out.attempted, out.failed),
    );
    if let Some(tracer) = &tracer {
        std::fs::create_dir_all(host::out_dir())?;
        let path = host::out_dir().join(format!("trace-{}-{}.jsonl", workload.name(), cfg.seed));
        tracer.write_jsonl(&path, &out.render_detail_json())?;
        out.provenance("trace_spans", tracer.len());
        out.provenance("trace_file", path.display());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_workload(workload, &cfg) {
        Ok(out) => {
            let result = cfg.result_metrics();
            print!("{}", out.render_text(result));
            println!("{}", out.render_detail_json());
            println!("{}", out.render_json(result));
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} failed its correctness checks",
                    workload.name()
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", workload.name());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, cfg) = parse_args(&args(
            "--workload wire-serving --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, Workload::WireServing);
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace, cfg.smoke),
            (7, 10.0, true, false)
        );
        assert_eq!(cfg.untraced_seconds(), 5.0);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload wire-serving --seconds 1")).is_err());
        assert!(parse_args(&args("--workload wire-serving --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args(
            "--workload wire-serving --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    /// The `name` values listed in `BENCHMARK.json` between `from` and
    /// `to` (the end of the file when `None`), each with the line it is on.
    fn manifest_entries(from: &str, to: Option<&str>) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest.find(from).expect("section present");
        let end = to.map_or(manifest.len(), |t| {
            manifest.find(t).expect("section present")
        });
        manifest[start..end]
            .lines()
            .filter_map(|line| {
                let rest = line.split("\"name\": \"").nth(1)?;
                Some((rest[..rest.find('"')?].to_string(), line.to_string()))
            })
            .collect()
    }

    fn manifest_names(from: &str, to: Option<&str>) -> Vec<String> {
        manifest_entries(from, to)
            .into_iter()
            .map(|e| e.0)
            .collect()
    }

    #[test]
    fn manifest_lists_the_workloads_and_result_metrics() {
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            manifest_names("\"workloads\"", Some("\"end_to_end\"")),
            workloads
        );
        assert_eq!(
            manifest_names("\"end_to_end\"", Some("\"per_layer\"")),
            END_TO_END
        );
        assert_eq!(manifest_names("\"per_layer\"", None), PER_LAYER);
    }

    /// Every workload at tiny sizes, traced and untraced: the answers
    /// check out, nothing fails, and each run reports every metric of its
    /// result line in the unit `BENCHMARK.json` gives.
    fn smoke(workload: Workload, seed: u64) {
        for trace in [false, true] {
            let cfg = RunConfig {
                seed,
                seconds: 1.0,
                trace,
                smoke: true,
            };
            let out = run_workload(workload, &cfg).unwrap();
            let text = out.render_text(cfg.result_metrics());
            assert!(out.correct(), "{} trace={trace}:\n{text}", workload.name());
            assert_eq!(out.failed, 0, "{text}");
            let manifest = if trace {
                manifest_entries("\"per_layer\"", None)
            } else {
                manifest_entries("\"end_to_end\"", Some("\"per_layer\""))
            };
            for (name, line) in manifest {
                let m = out
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing:\n{text}"));
                assert!(m.value.is_finite(), "{name}:\n{text}");
                let unit = format!("\"unit\": \"{}\"", m.unit);
                assert!(line.contains(&unit), "{name} is in {}: {line}", m.unit);
            }
        }
    }

    #[test]
    fn smoke_paper_analytics() {
        smoke(Workload::PaperAnalytics, 11);
    }

    #[test]
    fn smoke_wire_serving() {
        smoke(Workload::WireServing, 12);
    }

    #[test]
    fn smoke_durable_ingest() {
        smoke(Workload::DurableIngest, 13);
    }
}
