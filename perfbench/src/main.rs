//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline-mix|steer-lanes|serve-tcp> \
//!     --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Prints a human-readable summary on stderr, then on stdout the
//! stamped result record and, as the last line, the one-line result.
//! The traced run also writes its spans to
//! `<work-dir>/trace-<workload>-<seed>.jsonl`.

use std::io::Write;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use rsp_perfbench::record::{record_line, result_line, Stamp};
use rsp_perfbench::{run_workload, Opts, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--work-dir DIR]",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse() -> (String, Opts) {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        work_dir: PathBuf::from(".perfbench-out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                }
            }
            "--work-dir" => opts.work_dir = PathBuf::from(value()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    (workload, opts)
}

/// A layer that hangs (a server that stops answering, say) must not
/// hang the benchmark: give up without a result well inside the three
/// minutes a run may take. The thread is left detached on purpose; it
/// ends with the process.
fn watchdog(seconds: f64) {
    let limit = Duration::from_secs_f64((3.0 * seconds + 60.0).min(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        exit(3);
    });
}

fn main() {
    let (workload, opts) = parse();
    watchdog(opts.seconds);
    let out = match run_workload(&workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            exit(1);
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    for m in &out.metrics {
        match m.summary {
            Some(s) => eprintln!(
                "{:<40} {:>16.4} {:<12} (n={}, q1={:.4}, q3={:.4})",
                m.def.name, m.value, m.def.unit, s.n, s.q1, s.q3
            ),
            None => eprintln!("{:<40} {:>16.4} {}", m.def.name, m.value, m.def.unit),
        }
    }
    let record = record_line(&workload, &opts, &out, &Stamp::here());
    if let Err(e) = save(&opts, &workload, &out, &record) {
        eprintln!("perfbench: could not save the record: {e}");
    }
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{record}");
    let _ = writeln!(stdout, "{}", result_line(&out));
}

/// Append the record to `<work-dir>/results.jsonl` and write the spans
/// of a traced run.
fn save(
    opts: &Opts,
    workload: &str,
    out: &rsp_perfbench::metrics::Outcome,
    record: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.work_dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(opts.work_dir.join("results.jsonl"))?;
    writeln!(f, "{record}")?;
    if opts.trace {
        let path = opts
            .work_dir
            .join(format!("trace-{workload}-{}.jsonl", opts.seed));
        out.tracer.write_jsonl(&path)?;
    }
    Ok(())
}
