//! The repository benchmark.
//!
//! ```text
//! python3 perfbench/run.py --workload <coldstart|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed` (seed 0 reproduces the
//! `Dataset` stand-ins), times its fixed passes for at least `--seconds`,
//! checks every output against the library's naive-reference self-check,
//! and prints one JSON object as the last line of standard output: the
//! end-to-end metrics untraced (`--trace 0`), or the per-layer metrics of
//! one extra traced pass (`--trace 1`). The full record, with host
//! metadata, goes to `.bench_out/`, and a traced run also writes its spans
//! there as Chrome trace-event JSON.

mod coldstart;
mod common;
mod layers;
mod serve;
mod stats;
mod trace;

use chg_bench::HostMeta;
use chg_serve::json::Json;
use common::{Metrics, Outcome};
use std::path::Path;
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = ["coldstart", "serve"];
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(parsed)
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .0
            .iter()
            .map(|m| {
                assert!(stats::valid_metric_name(&m.name), "invalid metric name {}", m.name);
                // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
                let value = Json::F64(if m.value.is_finite() { m.value + 0.0 } else { 0.0 });
                (
                    m.name.clone(),
                    Json::obj(vec![("value", value), ("unit", Json::Str(m.unit.into()))]),
                )
            })
            .collect(),
    )
}

/// The full record: what the result line says plus host, seed and notes.
fn record(args: &Args, out: &Outcome) -> Json {
    let host = HostMeta::collect();
    let layer_targets = Json::Obj(
        out.per_layer.0.iter().map(|m| (m.name.clone(), Json::Str(m.moves.into()))).collect(),
    );
    Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "host",
            Json::obj(vec![
                ("cpu", Json::Str(host.cpu)),
                ("available_cores", Json::U64(host.available_cores as u64)),
                ("os", Json::Str(host.os)),
                ("arch", Json::Str(host.arch)),
                ("unix_timestamp", Json::U64(host.unix_timestamp)),
                ("timestamp_source", Json::Str(host.timestamp_source)),
                (
                    "thread_scaling",
                    Json::Str(format!(
                        "unmeasurable with {} core(s); BENCH_parallel.json is not comparable",
                        host.available_cores
                    )),
                ),
            ]),
        ),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("error_rate", Json::F64(out.failed as f64 / out.attempted.max(1) as f64)),
        ("end_to_end", metrics_json(&out.end_to_end)),
        ("per_layer", metrics_json(&out.per_layer)),
        ("per_layer_moves", if args.trace { layer_targets } else { Json::Null }),
        ("notes", Json::Arr(out.notes.iter().map(|n| Json::Str(n.clone())).collect())),
    ])
}

fn write(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <coldstart|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let out = match args.workload.as_str() {
        "coldstart" => coldstart::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    if out.attempted == 0 {
        eprintln!("perfbench: nothing was attempted");
        return ExitCode::FAILURE;
    }

    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let dir = Path::new(OUT_DIR);
    write(&dir.join(format!("result-{stem}.json")), &record(&args, &out).pretty());
    if let Some(tracer) = &out.tracer {
        let path = dir.join(format!("trace-{stem}.json"));
        write(&path, &tracer.chrome_json().encode());
        eprintln!("perfbench: {} spans -> {}", tracer.spans().len(), path.display());
    }
    let shown = if args.trace { &out.per_layer } else { &out.end_to_end };
    for m in &shown.0 {
        eprintln!("{:>36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("metrics", metrics_json(shown)),
    ]);
    println!("{}", line.encode());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
