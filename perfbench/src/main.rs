//! `perfbench`: the Veritas engine's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <cf-mpc|abduce-cold|serve-live|dist-agg|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in a child process of its own (the parent
//! re-executes itself with `--child`), builds its inputs from `--seed`,
//! measures a closed request loop for `--seconds`, checks the program's
//! answers, and prints a table of metrics (name, value, unit, sample
//! count) followed by one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a
//! separate traced run that reports the per-layer metrics and writes
//! its spans to `.bench_work/trace-<workload>-seed<n>.jsonl`.
//! `--workload all` runs the four workloads one after another and
//! prints every table.

mod abduce_cold;
mod cf_mpc;
mod common;
mod dist_agg;
mod serve_live;
mod stats;
mod trace;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use common::{Opts, Report};

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] = [
    cf_mpc::NAME,
    abduce_cold::NAME,
    serve_live::NAME,
    dist_agg::NAME,
];

/// Directory (relative to the working directory) holding each run's
/// scratch files and the traced runs' span files.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--child" => child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.child {
        run_child(&args)
    } else {
        run_parent(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process and prints its report.
fn run_child(args: &Args) -> Result<(), String> {
    let work = PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        work: work.clone(),
    };
    let report: Result<Report, String> = match args.workload.as_str() {
        cf_mpc::NAME => cf_mpc::run(&opts),
        abduce_cold::NAME => abduce_cold::run(&opts),
        serve_live::NAME => serve_live::run(&opts),
        dist_agg::NAME => dist_agg::run(&opts),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    report?.print();
    Ok(())
}

/// Runs each selected workload in a child process, forwarding its
/// table. A single workload's JSON line is forwarded as the last line;
/// `all` closes with one JSON line over every workload, metric names
/// prefixed by the workload.
fn run_parent(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let selected: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut results = Vec::new();
    for workload in &selected {
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }, "--child"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let stderr = child.stderr.take().expect("piped stderr");
        // The service logs one JSON line per plan to stderr. Drain that
        // flood through a pipe (no disk writes that could stall the
        // service) and keep only the other lines.
        let (last, notes) = std::thread::scope(|scope| {
            let notes = scope.spawn(|| {
                BufReader::new(stderr)
                    .lines()
                    .map_while(Result::ok)
                    .filter(|line| !line.starts_with('{'))
                    .collect::<Vec<_>>()
            });
            let mut last = None;
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if line.starts_with('{') {
                    last = Some(line);
                } else {
                    println!("{line}");
                }
            }
            (last, notes.join().expect("stderr reader panicked"))
        });
        let status = child
            .wait()
            .map_err(|e| format!("wait for {workload}: {e}"))?;
        for line in &notes {
            eprintln!("{workload}: {line}");
        }
        match (status.success(), last) {
            (true, Some(json)) => results.push((workload, json)),
            _ => return Err(format!("{workload} exited with {status} and no result")),
        }
    }
    match results.as_slice() {
        [(_, json)] => println!("{json}"),
        _ => println!("{}", combine(&results)?),
    }
    Ok(())
}

/// One JSON line over several workloads' results.
fn combine(results: &[(&&str, String)]) -> Result<String, String> {
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for (workload, json) in results {
        use serde_json::Value;
        let value: Value =
            serde_json::from_str(json).map_err(|e| format!("{workload} result: {e}"))?;
        let Value::Object(fields) = value else {
            return Err(format!("{workload} result is not an object"));
        };
        for (key, field) in fields {
            match (key.as_str(), field) {
                ("correct", Value::Bool(ok)) => correct &= ok,
                ("attempted", Value::Number(n)) => attempted += n as u64,
                ("failed", Value::Number(n)) => failed += n as u64,
                ("metrics", Value::Object(map)) => {
                    for (name, metric) in map {
                        let metric = serde_json::to_string(&metric).map_err(|e| e.to_string())?;
                        metrics.push(format!("\"{workload}/{name}\": {metric}"));
                    }
                }
                (other, _) => return Err(format!("{workload} result: unexpected key {other}")),
            }
        }
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}
