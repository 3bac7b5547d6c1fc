//! popmon-perfbench — the end-to-end and per-layer benchmark of popmon.
//!
//! ```text
//! perfbench --workload <serve_small|whatif_warm|sweep_figures>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures for `--seconds`, checks
//! every answer, and prints a table followed by one JSON line (see
//! [`report`]). With `--trace 1` it runs the workload once untraced and
//! once traced (half of `--seconds` each), times the calls into each
//! layer's public functions from
//! this package's own code, prints the per-layer metrics, and writes the
//! spans to `.bench_out/`. See `README.md` for the workloads and metrics.

mod net;
mod probes;
mod replay;
mod report;
mod requests;
mod serve;
mod shadow;
mod stats;
mod sweep;
mod trace;
mod whatif;

use std::process::ExitCode;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_small|whatif_warm|sweep_figures> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve_small", "whatif_warm", "sweep_figures"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Config {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    trace::epoch();
    // A traced run measures the workload twice, untraced and traced, so
    // each phase gets half the time.
    let cfg = Config {
        seconds: if cfg.trace {
            (cfg.seconds / 2).max(1)
        } else {
            cfg.seconds
        },
        ..cfg
    };
    let result = match cfg.workload.as_str() {
        "serve_small" => serve::run(&cfg),
        "whatif_warm" => whatif::run(&cfg),
        _ => sweep::run(&cfg),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-{}.csv",
            cfg.workload, cfg.seed
        ));
        match trace::write_csv(&path, &report.spans) {
            Ok(()) => report.line(format!(
                "spans: {} written to {}",
                report.spans.len(),
                path.display()
            )),
            Err(e) => report.line(format!("spans: not written ({e})")),
        }
    }
    report.print(cfg.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let c = parse_args(&args(
            "--workload whatif_warm --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(c.workload, "whatif_warm");
        assert_eq!((c.seed, c.seconds, c.trace), (7, 20, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1",
            "--workload serve_small --seed x",
            "--workload serve_small --trace 2",
            "--workload serve_small --bogus 1",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
