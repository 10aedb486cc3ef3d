//! The repository benchmark: four CEP workloads driven through the
//! public API, the end-to-end metrics with `--trace 0` (throughput,
//! state, memory and set-up time in the result line; match latency
//! printed beside them), and a traced run giving the per-layer metrics
//! with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stock-mix|rare-join|rate-drift|sharded-keyed|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root. Every run checks the outputs; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A divergence exits with code 1
//! after printing it. End-to-end timings are scaled to a nominal host
//! speed (see `measure::reference_s`); `perfbench/spec.json` holds the
//! offered rates, the seeds and the map from layers to metrics.

mod check;
mod measure;
mod trace;
mod workload;

use cep::core::error::CepError;
use cep::obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// The benchmark contract: metric names and units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Offered rates, seeds and the layer map.
const SPEC_JSON: &str = include_str!("../spec.json");

/// Fewest measurement rounds per run, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Time spent on repeated set-ups in each round.
const SETUP_SLICE: Duration = Duration::from_millis(250);

/// A measured metric value by name.
pub type Metrics = BTreeMap<String, f64>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(default_seed: u64) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: default_seed,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse::<u64>().map_err(bad)? as f64,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| e.to_string())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?} or all",
            workload::NAMES
        ));
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `(name, unit)` of the metrics one mode reports, from BENCHMARK.json.
fn declared(trace: bool) -> Vec<(String, String)> {
    let bench = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn spec() -> Json {
    json::parse(SPEC_JSON).expect("spec.json is valid JSON")
}

/// The fixed open-loop rate of a workload, from spec.json.
fn offered_rate(name: &str) -> f64 {
    spec()
        .get("offered_rate_eps")
        .and_then(|r| r.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("spec.json has no offered rate for {name}"))
}

/// One workload's run: measured metrics plus the output check.
struct Outcome {
    metrics: Metrics,
    report: check::Report,
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let mut ws = Workload::generate_all(name, args.seed).map_err(|e| e.to_string())?;
    if args.trace {
        // The traced run covers the first stream only.
        ws.truncate(1);
    }
    let w = &ws[0];
    println!(
        "workload {name} seed {}: {} stream(s), {} events, {} queries",
        args.seed,
        ws.len(),
        ws.iter().map(|w| w.events().len()).sum::<usize>(),
        w.queries.len()
    );
    let metrics = if args.trace {
        trace::run(w, offered_rate(name)).map_err(|e| e.to_string())?
    } else {
        end_to_end(&ws, args.seconds).map_err(|e| e.to_string())?
    };
    let report = check::run(&ws).map_err(|e| e.to_string())?;
    println!(
        "  check: {} matches, digest {:016x}; {} of {} query comparisons failed ({:.1}%) \
         (second backend {:?} over every full stream, naive oracle over {} events of the first)",
        report.matches,
        report.digest,
        report.failed,
        report.attempted,
        100.0 * report.failed as f64 / report.attempted as f64,
        w.check_backend,
        w.oracle_prefix.min(w.events().len()),
    );
    for d in &report.divergences {
        println!("  DIVERGENCE: {d}");
    }
    Ok(Outcome { metrics, report })
}

fn end_to_end(ws: &[Workload], seconds: f64) -> Result<Metrics, CepError> {
    // Rounds of set-ups, one closed-loop pass and one open-loop pass
    // until the time is used, so every metric samples the whole run.
    // Round `r` runs on input stream `r % ws.len()`, and every stream gets
    // at least one round. The run's timings are then divided by its host
    // slowness: the median time of the reference kernel, timed three
    // times a round, over its nominal time (see `measure::reference_s`).
    let w = &ws[0];
    let rate = offered_rate(w.name);
    let start = Instant::now();
    let (mut setup, mut eps) = (Vec::new(), Vec::new());
    let (mut p50, mut p99, mut lag99, mut late) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reference, mut samples) = (Vec::new(), 0usize);
    let mut first: Vec<Option<measure::Closed>> = ws.iter().map(|_| None).collect();
    let us = |ns: u64| ns as f64 / 1e3;
    while eps.len() < MIN_ROUNDS.max(ws.len()) || start.elapsed().as_secs_f64() < seconds {
        let k = eps.len() % ws.len();
        let w = &ws[k];
        reference.push(measure::reference_s());
        let setup_start = Instant::now();
        let mut setups = Vec::new();
        while setup_start.elapsed() < SETUP_SLICE || setups.len() < MIN_ROUNDS {
            setups.push(measure::setup_once(w)?);
        }
        let closed = measure::closed_pass(w)?;
        reference.push(measure::reference_s());
        let open = measure::open_pass(w, rate)?;
        reference.push(measure::reference_s());
        if first[k]
            .as_ref()
            .is_some_and(|c| c.matches != closed.matches)
        {
            return Err(CepError::Plan(
                "closed-loop passes disagree on the match count".into(),
            ));
        }
        setup.extend(setups);
        eps.push(closed.eps);
        p50.push(us(measure::quantile(&open.latencies_ns, 0.50)));
        p99.push(us(measure::quantile(&open.latencies_ns, 0.99)));
        lag99.push(us(measure::quantile(&open.lags_ns, 0.99)));
        late.push(open.late_events as f64);
        samples += open.latencies_ns.len();
        first[k].get_or_insert(closed);
    }
    let first: Vec<measure::Closed> = first.into_iter().flatten().collect();
    let rss = measure::peak_rss_mb().map_err(CepError::Plan)?;
    let matches: u64 = first.iter().map(|c| c.matches).sum();
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("{lo:.1} to {hi:.1}")
    };
    let median = measure::median;
    let slow = median(&reference) / measure::REFERENCE_NOMINAL_S;
    let mut m = Metrics::new();
    m.insert("throughput_eps".into(), median(&eps) * slow);
    // Quantiles are taken per pass, not over all samples pooled: a stall
    // of the host backs up the samples of the pass it hits. A stall of a
    // few milliseconds delays more than 1% of a pass's samples at these
    // rates, so it decides that pass's p99; p99 comes from the pass at the
    // lower quartile, which holds unless three passes in four stall.
    // They are printed but not in the result line: over ten seeds their
    // spread was above the 0.25 cap on a bound (see spec.json).
    let (p50_us, p99_us) = (median(&p50) / slow, measure::lower_quartile(&p99) / slow);
    // The peak state of one stream is set by the draw of its events; the
    // median over the run's streams is what a change to the program moves.
    let peaks: Vec<f64> = first.iter().map(|c| c.peak_state_bytes as f64).collect();
    m.insert("peak_state_bytes".into(), median(&peaks));
    m.insert("peak_rss_mb".into(), rss);
    m.insert("setup_s".into(), median(&setup) / slow);

    let rounds = eps.len();
    let per_pass = samples / rounds;
    println!(
        "  {rounds} rounds; reference kernel {} ms (nominal {} ms): slowness {slow:.3}, \
         which divides the timings below; ranges in brackets are unscaled passes",
        range(&reference.iter().map(|r| r * 1e3).collect::<Vec<_>>()),
        measure::REFERENCE_NOMINAL_S * 1e3,
    );
    println!(
        "  throughput_eps        {:>14.1} events/s  median of {rounds} closed-loop passes ({}); \
         {matches} matches over the {} stream(s), one pass each",
        m["throughput_eps"],
        range(&eps),
        ws.len()
    );
    println!(
        "  match_latency_p50_us  {p50_us:>14.2} us  (not gated) median of {rounds} open-loop passes \
         at {rate} events/s ({}); {per_pass} samples per pass, one per call that returned matches",
        range(&p50)
    );
    if per_pass / 100 >= 10 {
        println!(
            "  match_latency_p99_us  {p99_us:>14.2} us  (not gated) lower quartile of the same passes ({}); \
             {} samples beyond p99 per pass",
            range(&p99),
            per_pass / 100
        );
    } else {
        println!(
            "  match_latency_p99_us  {:>14} us  (not gated) withheld: {} samples beyond p99 per pass, \
             fewer than 10",
            "-",
            per_pass / 100
        );
    }
    if w.is_sharded() {
        println!(
            "                        latency from one registry of the same spec: \
             run_registry exposes no per-match completion"
        );
    }
    println!(
        "  driver: lag p99 {:.1} us, {} events issued late (medians per pass, unscaled)",
        median(&lag99),
        median(&late)
    );
    println!(
        "  peak_state_bytes      {:>14} bytes  sum over fragments and shards, median over {} stream(s) ({})",
        m["peak_state_bytes"],
        peaks.len(),
        range(&peaks)
    );
    println!("  peak_rss_mb           {rss:>14.1} MB  VmHWM");
    println!(
        "  setup_s               {:>14.6} s  median of {} set-ups",
        m["setup_s"],
        setup.len()
    );
    Ok(m)
}

/// The final JSON line, with exactly the declared metrics.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, (f64, String)>,
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, (value, unit))| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(*value)),
                    ("unit".into(), Json::Str(unit.clone())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .encode()
}

/// Runs every workload in a child process of its own, so each one's
/// peak RSS is its own, and prints one combined line.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = BTreeMap::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for name in workload::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds as u64).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        let result = json::parse(last).map_err(|e| format!("{name}: no result line: {e}"))?;
        correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(ms)) = result.get("metrics") {
            for (metric, v) in ms {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                all.insert(format!("{name}.{metric}"), (value, unit));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &all));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let default_seed = spec()
        .get("default_seed")
        .and_then(Json::as_u64)
        .expect("spec.json names a default seed");
    let args = match parse_args(default_seed) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args.workload, &args).and_then(|o| {
            let mut out = BTreeMap::new();
            for (name, unit) in declared(args.trace) {
                let value = o
                    .metrics
                    .get(name.as_str())
                    .copied()
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                out.insert(name, (value, unit));
            }
            if out.len() != o.metrics.len() {
                return Err("measured metrics that BENCHMARK.json does not declare".into());
            }
            let ok = o.report.failed == 0;
            println!(
                "{}",
                result_line(ok, o.report.attempted, o.report.failed, &out)
            );
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        })
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
