//! The repository's benchmark: end-to-end and per-layer numbers for one
//! programmable bootstrap on the paper's parameter sets I and II, for
//! open-loop serving on set I, and for multi-tenant serving under key
//! churn. See `README.md` next to this crate for the workloads and every
//! metric.
//!
//! ```text
//! perfbench --workload <pbs|serve-set1|serve-tenants> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`
//! holding the end-to-end metrics of an untraced run (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`).

mod counts;
mod layers;
mod pbs;
mod report;
mod schedule;
mod serve;
mod serving;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["pbs", "serve-set1", "serve-tenants"];

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = match workload {
        "pbs" => pbs::run(ctx)?,
        "serve-set1" => serving::run_set1(ctx)?,
        "serve-tenants" => serving::run_tenants(ctx)?,
        _ => unreachable!("workload names are checked by parse"),
    };
    report.set_e2e("peak_rss_mb", report::peak_rss_mb()?);
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report.render(ctx.trace) {
        Ok(text) => {
            print!("{text}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {workload}: {} of {} operations failed or decrypted wrong",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (w, ctx) = parse(&args("--workload pbs --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "pbs");
        assert_eq!(ctx.seed, 3);
        assert_eq!(ctx.seconds, Duration::from_secs(10));
        assert!(ctx.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&args("--workload pbs --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&args("--workload pbs --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload pbs --seed 1 --seconds 1")).is_err());
        assert!(parse(&args("--workload pbs --seed")).is_err());
    }
}
