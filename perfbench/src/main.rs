//! ODIN's repository benchmark: one command, three workloads, two modes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady-http|burst-teacher|drift-recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced mode (`--trace 0`) sets a deployment up, drives it for
//! `--seconds` of timed load through public APIs only, checks every
//! output against a standalone replay, and prints the end-to-end
//! metrics. The traced mode (`--trace 1`) repeats the workload with
//! spans recorded around the benchmark's own calls, replays the
//! workload's frames layer by layer, and prints the per-layer metrics.
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (`{name: {value, unit}}`). The
//! line before it is the full record — provenance, every metric with its
//! sample count, check details — also written to
//! `.perfbench_out/<workload>-seed<n>-trace<t>.json`, with the spans of
//! a traced run next to it. A failed output check prints
//! `"correct":false` and exits with status 1; bad arguments or missing
//! weights exit with status 2 without a result.

mod burst;
mod checks;
mod deploy;
mod json;
mod layers;
mod ops;
mod recover;
mod report;
mod stats;
mod steady;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use deploy::{provenance, repo_root};
use json::Json;
use report::{metric, Ctx, Metric, Outcome, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["steady-http", "burst-teacher", "drift-recover"];

const USAGE: &str = "usage: perfbench --workload <steady-http|burst-teacher|drift-recover> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed {value}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {value} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run_pass(name: &str, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    match name {
        "steady-http" => steady::run(ctx, trace),
        "burst-teacher" => burst::run(ctx, trace),
        "drift-recover" => recover::run(ctx, trace),
        other => Err(format!("workload {other} is not implemented")),
    }
}

/// Runs the workload. The traced mode runs it twice, untraced then
/// traced, so the cost of tracing shows as `bench.trace_overhead_pct`
/// (relative change of `frame_p50_ms`); both passes' checks count.
fn run(args: &Args, base: &Ctx) -> Result<Outcome, String> {
    let pass_ctx = |k: usize| Ctx { work_dir: base.work_dir.join(format!("pass{k}")), ..*base };
    if !args.trace {
        return run_pass(&args.workload, &pass_ctx(0), false);
    }
    let plain = run_pass(&args.workload, &pass_ctx(0), false)?;
    let mut traced = run_pass(&args.workload, &pass_ctx(1), true)?;
    let (a, b) = (plain.get("frame_p50_ms"), traced.get("frame_p50_ms"));
    let overhead = match (a, b) {
        (Some(a), Some(b)) if a > 0.0 => 100.0 * (b - a) / a,
        _ => f64::NAN,
    };
    traced.layers.push(metric("bench.trace_overhead_pct", overhead, 2));
    traced.problems.extend(plain.problems.into_iter().map(|p| format!("untraced pass: {p}")));
    Ok(traced)
}

/// The printed metrics, in catalogue order: the end-to-end set, or the
/// per-layer set with unexercised layers at 0 from 0 samples.
fn selected(outcome: &Outcome, trace: bool) -> Vec<Metric> {
    let (catalogue, pool) =
        if trace { (PER_LAYER, &outcome.layers) } else { (END_TO_END, &outcome.e2e) };
    catalogue
        .iter()
        .map(|(name, _)| {
            pool.iter().find(|m| m.name == *name).cloned().unwrap_or_else(|| metric(name, 0.0, 0))
        })
        .collect()
}

fn metric_json(m: &Metric, samples: bool) -> Json {
    let j = Json::obj().num("value", m.value).str("unit", m.unit);
    if samples {
        j.num("samples", m.samples as f64)
    } else {
        j
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One tensor thread per caller: serving workers are the parallelism.
    odin_tensor::par::set_num_threads(1);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = repo_root();
    let work_dir: PathBuf = root.join(".perfbench_run").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workers: nproc.clamp(1, 2),
        work_dir: work_dir.clone(),
        epoch,
    };
    let result = run(&args, &ctx);
    std::fs::remove_dir_all(&work_dir).ok();
    // Only succeeds when no other run is using it.
    std::fs::remove_dir(root.join(".perfbench_run")).ok();
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let printed = selected(&outcome, args.trace);
    for m in &printed {
        if !m.value.is_finite() {
            outcome.problems.push(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    let correct = outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let all: Vec<String> = outcome
        .e2e
        .iter()
        .chain(&outcome.layers)
        .map(|m| Json::obj().str("name", &m.name).obj_field("m", metric_json(m, true)).render())
        .collect();
    let problems: Vec<String> =
        outcome.problems.iter().map(|p| Json::obj().str("p", p).render()).collect();
    let record = Json::obj()
        .obj_field("provenance", provenance(&args.workload, args.seed, outcome.workers, args.trace))
        .bool("correct", correct)
        .num("attempted", outcome.attempted as f64)
        .num("failed", outcome.failed as f64)
        .num("seconds", args.seconds)
        .arr("metrics", &all)
        .arr("problems", &problems)
        .obj_field("checks", std::mem::take(&mut outcome.notes))
        .render();
    let out_dir = root.join(".perfbench_out");
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if std::fs::create_dir_all(&out_dir).is_ok() {
        std::fs::write(out_dir.join(format!("{stem}.json")), format!("{record}\n")).ok();
        if args.trace {
            let spans = std::mem::take(&mut outcome.spans);
            trace::write_spans(&out_dir.join(format!("{stem}.spans.jsonl")), spans).ok();
        }
    }
    println!("{record}");

    let mut metrics = Json::obj();
    for m in &printed {
        metrics = metrics.obj_field(&m.name, metric_json(m, false));
    }
    let last = Json::obj()
        .bool("correct", correct)
        .num("attempted", outcome.attempted.max(1) as f64)
        .num("failed", outcome.failed as f64)
        .obj_field("metrics", metrics)
        .render();
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a =
            parse_args(&argv("--workload drift-recover --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("drift-recover", 7, 12.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload steady-http --seed x --seconds 5 --trace 0",
            "--workload steady-http --seed 1 --seconds 0 --trace 0",
            "--workload steady-http --seed 1 --seconds 5 --trace 2",
            "--workload steady-http --seed 1 --seconds 5",
            "--workload steady-http --seed 1 --seconds 5 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
