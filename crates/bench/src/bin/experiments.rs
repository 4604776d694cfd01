//! Experiment runner: regenerates every table and figure of the paper
//! plus the quantitative studies E1–E9 (see DESIGN.md §4 and
//! EXPERIMENTS.md).
//!
//! ```text
//! experiments <id>|all|list [--out-dir DIR] [--resume] [--verbose]
//!             [--cache-dir DIR] [--code-version V]
//!             [--shard K/N | --merge]
//! experiments gc --cache-dir DIR [--code-version V]
//! ```
//!
//! Sweep-engine experiments (`e1-ipc`, `fault-sweep`,
//! `serve-saturation`, `serve-sched`) publish every point's row into
//! one content-addressed store (DESIGN.md §17): `--cache-dir` when it
//! is given and the sweep is cacheable, otherwise `<out-dir>/.sweep-store`.
//! `--shard K/N` runs one shard of the grid into that store and exits
//! (no merge — run the other shards, then `--merge`); `--merge` only
//! reads the grid back from the store, verifies the sweep's cross-point
//! assertions, and writes the `BENCH_*.json` artifact. `--resume`
//! serves points already in the store instead of recomputing them. The
//! merged artifact is byte-identical however the grid was split.
//!
//! Under `--cache-dir`, reruns, other shards, and other hosts sharing
//! the store dedupe work, and the run prints a `cache: …` summary line.
//! `--code-version` overrides the version baked into every cache key
//! (defaults to the crate version) — flip it to invalidate the store
//! wholesale. `gc` removes every object no registered cacheable sweep
//! can reach under the current code version.

use std::path::PathBuf;
use std::process::exit;

use rsp_bench::experiments::{run, sweep_runner, ALL_IDS};
use rsp_bench::{CasStore, Executor, Shard, SweepConfig, SweepError, SweepRunner};

struct Cli {
    positionals: Vec<String>,
    cfg: SweepConfig,
    merge_only: bool,
    sweep_flags_used: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id> [--out-dir DIR] [--resume] [--verbose]\n\
         \x20                    [--cache-dir DIR] [--code-version V]\n\
         \x20                    [--shard K/N | --merge]\n\
         \x20      experiments gc --cache-dir DIR [--code-version V]"
    );
    eprintln!("ids:");
    for id in ALL_IDS {
        eprintln!("  {id}");
    }
    exit(2);
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut positionals: Vec<String> = Vec::new();
    let mut cfg = SweepConfig::default();
    let mut merge_only = false;
    let mut sweep_flags_used = false;
    let need = |what: &str, v: Option<String>| -> String {
        v.unwrap_or_else(|| {
            eprintln!("{what} needs a value");
            exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out-dir" => cfg.out_dir = PathBuf::from(need("--out-dir", args.next())),
            "--cache-dir" => {
                cfg.cache_dir = Some(PathBuf::from(need("--cache-dir", args.next())));
            }
            "--code-version" => cfg.code_version = need("--code-version", args.next()),
            "--resume" => {
                cfg.resume = true;
                sweep_flags_used = true;
            }
            "--verbose" => cfg.verbose = true,
            "--shard" => {
                let s = need("--shard", args.next());
                match Shard::parse(&s) {
                    Ok(shard) => cfg.executor = Executor::Shard(shard),
                    Err(e) => {
                        eprintln!("{e}");
                        exit(2);
                    }
                }
                sweep_flags_used = true;
            }
            "--merge" => {
                merge_only = true;
                sweep_flags_used = true;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
            other => positionals.push(other.to_string()),
        }
    }
    if positionals.len() > 1 {
        eprintln!("more than one experiment id given");
        usage();
    }
    Cli {
        positionals,
        cfg,
        merge_only,
        sweep_flags_used,
    }
}

fn fail(e: SweepError) -> ! {
    eprintln!("error: {e}");
    exit(1);
}

/// Drive one sweep per the CLI. Shard runs publish and stop; everything
/// else runs (unless `--merge`) and then merges, printing the report.
fn drive_sweep(sweep: &dyn SweepRunner, cli: &Cli) {
    let is_shard_run = matches!(cli.cfg.executor, Executor::Shard(_));
    if !cli.merge_only {
        let summary = sweep.run(&cli.cfg).unwrap_or_else(|e| fail(e));
        if is_shard_run {
            eprintln!(
                "{} shard {} {}: store {}",
                sweep.name(),
                summary.shard,
                summary.progress,
                summary.store.display()
            );
            if let Some(cache) = &summary.cache {
                eprintln!("{}", cache.summary_line());
            }
            return;
        }
        if let Some(cache) = &summary.cache {
            println!("{}", cache.summary_line());
        }
    }
    let merged = sweep.merge(&cli.cfg).unwrap_or_else(|e| fail(e));
    println!("{}", merged.report);
    if let Some(path) = &merged.artifact {
        println!("wrote {} ({} points)", path.display(), merged.points);
    }
}

/// `experiments gc`: keep the objects of every point any registered
/// cacheable sweep enumerates under the current code version; remove
/// every other object, leftover claim and quarantined file.
fn gc(cli: &Cli) {
    let Some(dir) = &cli.cfg.cache_dir else {
        eprintln!("gc needs --cache-dir");
        usage();
    };
    if cli.sweep_flags_used {
        eprintln!("--shard/--merge/--resume apply to sweep ids, not 'gc'");
        exit(2);
    }
    let mut live = std::collections::BTreeSet::new();
    let sweep_ids = ALL_IDS
        .iter()
        .copied()
        .chain(std::iter::once("fault-sweep-reduced"));
    for sweep in sweep_ids.filter_map(sweep_runner) {
        if sweep.cacheable() {
            live.extend(sweep.point_hashes(&cli.cfg).unwrap_or_else(|e| fail(e)));
        }
    }
    let store = CasStore::open(dir).unwrap_or_else(|e| fail(e));
    let summary = store.gc(&live).unwrap_or_else(|e| fail(e));
    println!(
        "gc: kept {} object(s), removed {} object(s), {} claim(s), {} quarantined",
        summary.kept, summary.removed, summary.claims_removed, summary.quarantine_removed
    );
}

fn main() {
    let cli = parse_cli();
    match cli.positionals.first().map(String::as_str) {
        None | Some("list") => usage(),
        Some("gc") => gc(&cli),
        Some("all") => {
            if cli.sweep_flags_used {
                eprintln!("--shard/--merge/--resume apply to a single sweep id, not 'all'");
                exit(2);
            }
            for id in ALL_IDS.iter().filter(|&&i| i != "all") {
                if let Some(sweep) = sweep_runner(id) {
                    drive_sweep(sweep.as_ref(), &cli);
                } else {
                    let text = run(id).expect("known id");
                    println!("{text}");
                }
                println!("{}", "=".repeat(78));
            }
        }
        Some(id) => {
            if let Some(sweep) = sweep_runner(id) {
                drive_sweep(sweep.as_ref(), &cli);
            } else if cli.sweep_flags_used {
                eprintln!("'{id}' is not a sweep experiment; --shard/--merge/--resume need one of: e1-ipc, fault-sweep, serve-saturation, serve-sched");
                exit(2);
            } else {
                match run(id) {
                    Some(text) => println!("{text}"),
                    None => {
                        eprintln!("unknown experiment '{id}'; try: experiments list");
                        exit(2);
                    }
                }
            }
        }
    }
}
