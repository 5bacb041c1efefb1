//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures <artifact> [--scale <f>] [--threads <n>] [--cache-dir <dir>] [--no-cache]
//!         [--self-check] [--validate]
//!
//! artifacts: table1 table2 fig2 fig3 fig5 fig7 fig8 fig14 fig15 fig16
//!            fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24 fig25 area all
//! ```
//!
//! `--scale` shrinks the stand-in datasets multiplicatively for smoke runs
//! (default 1.0, the configuration EXPERIMENTS.md records). `--threads`
//! fans the independent grid simulations across worker threads (default:
//! the host's available parallelism); every artifact is bit-identical for
//! any thread count, and the run log (thread count, timings, cache
//! summary) goes to stderr so stdout stays reproducible. `--cache-dir`
//! persists preprocessing artifacts (loaded graphs and built OAGs) between
//! invocations (default `target/preprocess-cache`; `--no-cache` disables).
//!
//! `--self-check` diffs every grid execution against the naive reference
//! implementation, and `--validate` enables deep structural checks (input,
//! OAGs, per-schedule chain covers). With either guard, a tripped cell is
//! recorded as a failed cell (retried once, reported on stderr, non-zero
//! exit) while the rest of the grid completes — guards never abort the run.

use chg_bench::figures::{self, Harness};
use chg_bench::{default_threads, panic_message, PreprocessCache, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const ARTIFACTS: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig5", "fig7", "fig8", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "area", "energy",
    "chains",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: figures <artifact|all> [--scale <f>] [--threads <n>] [--cache-dir <dir>] \
         [--no-cache] [--self-check] [--validate]"
    );
    eprintln!("artifacts: {}", ARTIFACTS.join(" "));
    ExitCode::FAILURE
}

/// Emits one artifact with panic isolation: a cell that keeps failing
/// after the harness's retry unwinds out of the figure function, and is
/// converted here into a stderr report instead of aborting the remaining
/// artifacts. Returns whether the artifact was emitted.
fn emit_isolated(artifact: &str, h: &Harness) -> bool {
    match catch_unwind(AssertUnwindSafe(|| emit(artifact, h))) {
        Ok(()) => true,
        Err(payload) => {
            eprintln!("[{artifact} FAILED: {}]", panic_message(payload));
            false
        }
    }
}

/// Prints one artifact; `artifact` is one of [`ARTIFACTS`].
fn emit(artifact: &str, h: &Harness) {
    let t0 = Instant::now();
    match artifact {
        "table1" => println!("{}", figures::table1()),
        "table2" => println!("{}", figures::table2(h.scale)),
        "fig2" => println!("{}", figures::fig2(h)),
        "fig3" => println!("{}", figures::fig3(h)),
        "fig5" => println!("{}", figures::fig5(h)),
        "fig7" => println!("{}", figures::fig7(h)),
        "fig8" => println!("{}", figures::fig8(h)),
        "fig14" => println!("{}", figures::fig14(h)),
        "fig15" => println!("{}", figures::fig15(h)),
        "fig16" => println!("{}", figures::fig16(h)),
        "fig17" => println!("{}", figures::fig17(h)),
        "fig18" => println!("{}", figures::fig18(h)),
        "fig19" => println!("{}", figures::fig19(h)),
        "fig20" => println!("{}", figures::fig20(h)),
        "fig21" => println!("{}", figures::fig21(h)),
        "fig22" => println!("{}", figures::fig22(h)),
        "fig23" => println!("{}", figures::fig23(h)),
        "fig24" => println!("{}", figures::fig24(h)),
        "fig25" => println!("{}", figures::fig25(h)),
        "area" => println!("{}", figures::area_table()),
        "energy" => println!("{}", figures::energy(h)),
        "chains" => println!("{}", figures::chains(h)),
        other => unreachable!("artifact {other:?} was checked against ARTIFACTS"),
    }
    eprintln!("[{artifact} took {:.1?}]", t0.elapsed());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact = None;
    let mut scale = Scale::FULL;
    let mut threads = default_threads();
    let mut cache_dir = Some(String::from("target/preprocess-cache"));
    let mut self_check = false;
    let mut validate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--self-check" => self_check = true,
            "--validate" => validate = true,
            "--scale" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return usage();
                };
                scale = Scale(v);
            }
            "--threads" => {
                let Some(v) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                threads = v.max(1);
            }
            "--cache-dir" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                cache_dir = Some(v.clone());
            }
            "--no-cache" => cache_dir = None,
            "-h" | "--help" => return usage(),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag}");
                return usage();
            }
            name if artifact.is_none() && (name == "all" || ARTIFACTS.contains(&name)) => {
                artifact = Some(name.to_string());
            }
            _ => return usage(),
        }
    }
    let Some(artifact) = artifact else {
        return usage();
    };
    let mut h = Harness::new(scale).with_threads(threads).with_self_check(self_check);
    if validate {
        h.cfg = h.cfg.with_validate(true);
    }
    if let Some(dir) = cache_dir {
        match PreprocessCache::new(&dir) {
            Ok(cache) => h = h.with_cache(Arc::new(cache)),
            Err(e) => eprintln!("[cache disabled: cannot open {dir}: {e}]"),
        }
    }
    eprintln!("[{threads} worker thread(s)]");
    let t0 = Instant::now();
    // Artifacts are emitted even when some cells fail: each one is
    // panic-isolated, failed cells have already been retried once by the
    // harness, and the exit code reflects whether anything was lost.
    let artifacts = if artifact == "all" { ARTIFACTS } else { &[artifact.as_str()][..] };
    let mut emitted_ok = true;
    for a in artifacts {
        emitted_ok &= emit_isolated(a, &h);
    }
    if let Some(cache) = h.cache() {
        eprintln!("[{}]", cache.summary());
    }
    let failures = h.cell_failures();
    for f in &failures {
        eprintln!("[failed cell after retry: {f}]");
    }
    eprintln!("[total {:.1?}]", t0.elapsed());
    if emitted_ok && failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("[exiting non-zero: {} artifact/cell failure(s)]", failures.len().max(1));
        ExitCode::FAILURE
    }
}
