//! Regenerates every table and figure of the DAC'94 evaluation.
//!
//! ```text
//! cargo run -p ifsyn-bench --bin experiments -- all
//! cargo run -p ifsyn-bench --bin experiments -- fig7
//! cargo run -p ifsyn-bench --bin experiments -- faults  # writes BENCH_faults.json
//! cargo run -p ifsyn-bench --bin experiments -- calibrate
//!     # trace-analytics campaign: estimated vs observed rates over the
//!     # Fig. 7 sweep plus the calibration fixed point; writes
//!     # BENCH_analyze.json and exits nonzero when a pinned invariant
//!     # (alone-run exactness, shortfall tolerance, convergence) fails.
//!     # Options:
//!     #   --out PATH        output file (default BENCH_analyze.json)
//!     #   --tolerance R     worst allowed shared-rate shortfall
//!     #                     (default 0.5)
//! cargo run -p ifsyn-bench --bin experiments -- check
//!     # model-checking campaign over the refined-protocol catalog plus
//!     # the big-system scale run; writes BENCH_check.json (byte-
//!     # reproducible: counts and verdicts only, no timings) and exits
//!     # nonzero on any verdict deviation or big-system failure. Options:
//!     #   --out PATH        output file (default BENCH_check.json)
//! ```
//!
//! Performance is measured by the benchmark in `perfbench/`
//! (`python3 perfbench/run.py`), not by this binary.

use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "fig2" => print_fig2(),
        "fig7" => print_fig7(),
        "fig8" => print_fig8(),
        "extra" => print_extra(),
        "ablation" => print_ablation(),
        "overhead" => print_overhead(),
        "faults" => {
            if let Err(e) = run_faults(args.get(1).map(String::as_str)) {
                eprintln!("faults failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "calibrate" => {
            if let Err(e) = run_calibrate(&args[1..]) {
                eprintln!("calibrate failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "check" => {
            if let Err(e) = run_check(&args[1..]) {
                eprintln!("check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            print_fig2();
            print_fig7();
            print_fig8();
            print_extra();
            print_overhead();
            print_ablation();
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected fig2 | fig7 | fig8 | extra | overhead | ablation | faults | check | calibrate | all"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs the fault campaign and writes `BENCH_faults.json` (default) or
/// the given output path. Exits with an error when any protected run
/// corrupted data without raising a flag (an integrity regression).
fn run_faults(out_path: Option<&str>) -> Result<(), String> {
    rule();
    let data = ifsyn_bench::faults::run();
    print!("{}", ifsyn_bench::faults::render(&data));
    let path = out_path.unwrap_or("BENCH_faults.json");
    std::fs::write(path, ifsyn_bench::faults::to_json(&data)).map_err(|e| e.to_string())?;
    println!("\nwrote {path}");
    let silent = data.silent_corruptions();
    if !silent.is_empty() {
        return Err(format!(
            "{} protected run(s) completed corrupt with no status flag raised",
            silent.len()
        ));
    }
    Ok(())
}

/// Runs the trace-analytics campaign and writes `BENCH_analyze.json`
/// (default). Exits with an error when a pinned invariant fails:
/// alone-on-the-bus rates deviating from the static estimates, a shared
/// rate beating its analytic ceiling, the worst shared shortfall
/// exceeding the tolerance, or the calibration loop failing to converge.
fn run_calibrate(args: &[String]) -> Result<(), String> {
    let mut tolerance = ifsyn_bench::calibrate::DEFAULT_TOLERANCE;
    let mut out_path = "BENCH_analyze.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().ok_or("--out requires a value")?.clone(),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance requires a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err("--tolerance must be in [0, 1)".to_string());
                }
            }
            other => return Err(format!("unknown calibrate option `{other}`")),
        }
    }
    rule();
    let data = ifsyn_bench::calibrate::run();
    print!("{}", ifsyn_bench::calibrate::render(&data));
    std::fs::write(&out_path, ifsyn_bench::calibrate::to_json(&data)).map_err(|e| e.to_string())?;
    println!("\nwrote {out_path}");
    match ifsyn_bench::calibrate::check(&data, tolerance) {
        Ok(summary) => {
            print!("\n{summary}");
            Ok(())
        }
        Err(report) => {
            print!("\npinned checks FAILED:\n{report}");
            Err("trace-analytics regression detected".to_string())
        }
    }
}

/// Runs the model-checking campaign and writes `BENCH_check.json`
/// (default) or the path given with `--out`. Exits with an error when a
/// property that must hold is violated (or a known-broken baseline
/// unexpectedly passes), or when the big-system run fails.
fn run_check(args: &[String]) -> Result<(), String> {
    let mut out_path = "BENCH_check.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().ok_or("--out requires a value")?.clone(),
            other => return Err(format!("unknown check option `{other}`")),
        }
    }
    rule();
    let data = ifsyn_bench::check::run();
    print!("{}", ifsyn_bench::check::render(&data));
    std::fs::write(&out_path, ifsyn_bench::check::to_json(&data)).map_err(|e| e.to_string())?;
    println!("\nwrote {out_path}");
    let bad = data.unexpected();
    if !bad.is_empty() {
        return Err(format!(
            "{} property result(s) deviate from expectation",
            bad.len()
        ));
    }
    if data.big_failed() {
        return Err("big-system exploration failed".to_string());
    }
    Ok(())
}

fn rule() {
    println!("\n{}\n", "=".repeat(72));
}

fn print_fig2() {
    rule();
    print!("{}", ifsyn_bench::fig2::render(&ifsyn_bench::fig2::run()));
}

fn print_fig7() {
    rule();
    print!("{}", ifsyn_bench::fig7::render(&ifsyn_bench::fig7::run()));
}

fn print_fig8() {
    rule();
    print!("{}", ifsyn_bench::fig8::render(&ifsyn_bench::fig8::run()));
}

fn print_extra() {
    rule();
    print!("{}", ifsyn_bench::extra::render(&ifsyn_bench::extra::run()));
}

fn print_overhead() {
    rule();
    print!(
        "{}",
        ifsyn_bench::overhead::render(&ifsyn_bench::overhead::run())
    );
}

fn print_ablation() {
    rule();
    print!(
        "{}",
        ifsyn_bench::ablation::render(&ifsyn_bench::ablation::run())
    );
}
