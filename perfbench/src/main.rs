//! Benchmark of the interface-synthesis system, end to end and layer by
//! layer. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! ifsyn-perfbench --workload <spec_sweep|field_sim|check_big|check_catalog|all>
//!                 --seed N --seconds S --trace <0|1>
//!                 [--root DIR] [--out DIR] [--commit ID] [--rustc VERSION]
//! ifsyn-perfbench --write-manifest FILE
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of untraced passes with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `<out>/trace-<workload>-<seed>.json`.

mod check_big;
mod check_catalog;
mod data;
mod explore;
mod field_sim;
mod harness;
mod manifest;
mod spec_sweep;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use ifsyn_sim::SimReport;

use harness::{drive, Counts, Run, Workload};
use manifest::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{percentile, summarize};

/// Adds one simulation report's counters.
pub(crate) fn record_report(c: &mut Counts, r: &SimReport) {
    c.add("sim.instrs", r.total_instrs() as f64);
    c.add("sim.deltas", r.total_deltas() as f64);
    c.add("sim.time_steps", r.time_steps() as f64);
    c.add("sim.cycles", r.time() as f64);
    c.max("sim.heap_peak", r.heap_peak() as f64);
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: PathBuf,
    commit: String,
    rustc: String,
    write_manifest: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(manifest::RUN_SECONDS),
        trace: false,
        root: PathBuf::from("."),
        out: PathBuf::from(".bench_out"),
        commit: "unknown".to_string(),
        rustc: "unknown".to_string(),
        write_manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--root" => a.root = PathBuf::from(value()?),
            "--out" => a.out = PathBuf::from(value()?),
            "--commit" => a.commit = value()?,
            "--rustc" => a.rustc = value()?,
            "--write-manifest" => a.write_manifest = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.write_manifest.is_none() && a.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit `{}` prints.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One metric's reported value with the sample statistics behind it.
struct Value {
    metric: Metric,
    value: f64,
    q1: Option<f64>,
    q3: Option<f64>,
    n: usize,
}

impl Value {
    fn of_samples(metric: Metric, samples: &[f64]) -> Self {
        let s = summarize(samples);
        Self {
            metric,
            value: s.map_or(0.0, |s| s.median),
            q1: s.map(|s| s.q1),
            q3: s.map(|s| s.q3),
            n: samples.len(),
        }
    }

    fn single(metric: Metric, value: f64, n: usize) -> Self {
        Self {
            metric,
            value,
            q1: None,
            q3: None,
            n,
        }
    }
}

fn metric(list: &[Metric], name: &str) -> Metric {
    *list
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is declared in the manifest"))
}

/// End-to-end metrics from the run's untraced passes: medians over
/// passes of each pass's figure, so a burst of host noise in one pass
/// moves one sample only.
fn end_to_end(run: &Run) -> Vec<Value> {
    let m = |n| metric(&END_TO_END, n);
    let passes: Vec<_> = run.untraced().collect();
    let per_pass = |f: &dyn Fn(&harness::PassRecord) -> Option<f64>| -> Vec<f64> {
        passes.iter().filter_map(|p| f(p)).collect()
    };
    vec![
        Value::of_samples(m("setup_s"), &run.setup_s),
        Value::of_samples(m("wall_s"), &per_pass(&|p| Some(p.wall_s))),
        Value::of_samples(
            m("op_ms_p50"),
            &per_pass(&|p| percentile(&p.out.ops_ms, 50.0)),
        ),
        Value::of_samples(
            m("op_ms_p90"),
            &per_pass(&|p| percentile(&p.out.ops_ms, 90.0)),
        ),
        Value::of_samples(
            m("mwork_per_s"),
            &per_pass(&|p| Some(p.out.work / p.wall_s / 1e6)),
        ),
        Value::single(
            m("peak_rss_mb"),
            run.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            1,
        ),
    ]
}

/// Per-layer metrics from the run's traced passes.
fn per_layer(run: &Run) -> Vec<Value> {
    let times = run.layer_times();
    let first = run.traced().next().expect("a traced run has a traced pass");
    let traced_walls: Vec<f64> = run.traced().map(|p| p.wall_s).collect();
    let untraced_walls: Vec<f64> = run.untraced().map(|p| p.wall_s).collect();
    let median = |v: &[f64]| summarize(v).map_or(0.0, |s| s.median);
    PER_LAYER
        .iter()
        .map(|&m| {
            let span_secs = |span: &str, own: bool| -> Vec<f64> {
                times
                    .iter()
                    .zip(run.traced())
                    .map(|(t, p)| {
                        let (total, self_s) = t.get(span).copied().unwrap_or_default();
                        if !own {
                            total
                        } else if span == "bench.pass" {
                            (self_s - p.out.excluded.as_secs_f64()).max(0.0)
                        } else {
                            self_s
                        }
                    })
                    .collect()
            };
            match m.name {
                "trace.overhead" => Value::single(
                    m,
                    median(&traced_walls) / median(&untraced_walls),
                    traced_walls.len() + untraced_walls.len(),
                ),
                "trace.spans" => Value::single(m, first.spans.len() as f64, 1),
                "trace.duplicate_inputs" => Value::single(m, run.duplicate_inputs as f64, 1),
                name => {
                    if let Some(span) = name.strip_suffix(".self_s") {
                        Value::of_samples(m, &span_secs(span, true))
                    } else if let Some(span) = name.strip_suffix("_s") {
                        Value::of_samples(m, &span_secs(span, false))
                    } else {
                        Value::single(m, first.out.counts.get(name), 1)
                    }
                }
            }
        })
        .collect()
}

fn print_table(workload: &str, values: &[Value]) {
    println!("{workload}:");
    println!(
        "  {:<32} {:>6} {:>14} {:>14} {:>14} {:>7}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    for v in values {
        println!(
            "  {:<32} {:>6} {:>14.6} {:>14} {:>14} {:>7}",
            v.metric.name,
            v.metric.unit,
            v.value,
            cell(v.q1),
            cell(v.q3),
            v.n
        );
    }
}

fn metrics_json(values: &[Value], prefix: &str) -> Vec<String> {
    values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&format!("{prefix}{}", v.metric.name)),
                json_num(v.value),
                json_str(v.metric.unit)
            )
        })
        .collect()
}

fn provenance(args: &Args, workload: &str, threads: usize, run: &Run) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"available_parallelism\": {cores}, \"threads\": {threads}, \
         \"rustc\": {}, \"commit\": {}, \"seconds\": {}, \"trace\": {}, \"passes\": {}, \"setups\": {}}}",
        json_str(workload),
        args.seed,
        json_str(&args.rustc),
        json_str(&args.commit),
        json_num(args.seconds),
        args.trace,
        run.passes.len(),
        run.setup_s.len()
    )
}

/// The traced run's spans and counters, written when the run ends.
fn write_trace(args: &Args, workload: &str, prov: &str, run: &Run) -> Result<PathBuf, String> {
    let mut doc = format!("{{\n\"provenance\": {prov},\n");
    let first = run.traced().next().expect("a traced run has a traced pass");
    let counts: Vec<String> = first
        .out
        .counts
        .0
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let _ = writeln!(doc, "\"counts\": {{{}}},", counts.join(", "));
    doc.push_str("\"passes\": [\n");
    let passes: Vec<String> = run
        .passes
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let spans: Vec<String> = p
                .spans
                .iter()
                .map(|s| {
                    format!(
                        "[{}, {}, {}, {}, {}]",
                        json_str(s.name),
                        s.item,
                        s.parent.map_or(-1, |x| x as i64),
                        json_num(s.start),
                        json_num(s.end)
                    )
                })
                .collect();
            format!(
                "{{\"pass\": {k}, \"traced\": {}, \"wall_s\": {}, \"inputs\": \"{:016x}\", \"spans\": [\n{}\n]}}",
                p.traced,
                json_num(p.wall_s),
                p.out.inputs_digest(),
                spans.join(",\n")
            )
        })
        .collect();
    doc.push_str(&passes.join(",\n"));
    doc.push_str("\n]\n}\n");
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let path = args
        .out
        .join(format!("trace-{workload}-{}.json", args.seed));
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// What one workload's run reports.
struct Outcome {
    values: Vec<Value>,
    attempted: u64,
    failed: u64,
    /// No failed check and no repeated input.
    correct: bool,
}

/// Runs one workload and prints its report.
fn run_one<W: Workload>(args: &Args, name: &str, mut w: W) -> Result<Outcome, String> {
    let run = drive(&mut w, args.seed, args.seconds, args.trace)?;
    let prov = provenance(args, name, w.threads(), &run);
    println!("provenance {prov}");
    for e in run.passes.iter().flat_map(|p| &p.out.errors) {
        eprintln!("{name}: FAILED {e}");
    }
    let values = if args.trace {
        let path = write_trace(args, name, &prov, &run)?;
        println!("trace written to {}", path.display());
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    print_table(name, &values);
    let (attempted, failed) = (run.attempted(), run.failed());
    println!(
        "  fail_ratio {}/{} = {:.6}",
        failed,
        attempted,
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Outcome {
        values,
        attempted,
        failed,
        correct: failed == 0 && run.duplicate_inputs == 0,
    })
}

fn run_workload(args: &Args, name: &str) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    match name {
        "spec_sweep" => run_one(args, name, spec_sweep::SpecSweep::new(&args.root)),
        "field_sim" => run_one(args, name, field_sim::FieldSim::new(threads)),
        "check_big" => run_one(args, name, check_big::CheckBig::new(threads)),
        "check_catalog" => run_one(args, name, check_catalog::CheckCatalog::new(threads)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_manifest {
        return match std::fs::write(path, manifest::benchmark_json()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let all = names.len() > 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for name in &names {
        match run_workload(&args, name) {
            Ok(o) => {
                let prefix = if all {
                    format!("{name}.")
                } else {
                    String::new()
                };
                metrics.extend(metrics_json(&o.values, &prefix));
                attempted += o.attempted;
                failed += o.failed;
                correct &= o.correct;
            }
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all {
        println!("peak_rss_mb in an all-workload run is the process high-water mark so far");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
