//! The sweep layer (`bench::sweep`: canon, cas, the runner and merge),
//! measured in `pipeline-mix`'s traced run on the `fault-sweep`
//! experiment: one cold pass through the sweep runner into a fresh
//! content-addressed store, one warm pass on the same store, then
//! every point's public calls timed one by one.
//!
//! It has no untraced workload of its own. A `sweep-cache` workload
//! timing cold and warm passes was tried: on the shared measuring host
//! its figures spread by 0.33–0.39 (IQR over median) across ten runs,
//! beyond any bound the benchmark may set, because the passes' file
//! writes and reads and 90 ms runs of simulation slow with load from
//! elsewhere far more than the other workloads' short pieces of work.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use rsp_bench::experiments::faults::FaultSweep;
use rsp_bench::sweep::canon::point_cache_key;
use rsp_bench::sweep::cas::ObjectMeta;
use rsp_bench::{CasStore, Executor, Sweep, SweepConfig, SweepRunner};

use crate::metrics::Outcome;
use crate::trace::{SpanId, Tracer};
use crate::Opts;

/// What one pass produced.
struct PassResult {
    wall: Duration,
    artifact: Option<Vec<u8>>,
    lookups: u64,
    hits: u64,
}

fn sweep_cfg(out_dir: &Path, store: &Path, code_version: &str) -> SweepConfig {
    SweepConfig {
        executor: Executor::InProcess,
        out_dir: out_dir.to_path_buf(),
        resume: false,
        verbose: false,
        cache_dir: Some(store.to_path_buf()),
        code_version: code_version.to_string(),
    }
}

/// Run and merge the sweep into `out_dir` through the store: one
/// operation, failed by a failed run, merge or verify.
fn pass(
    sweep: &FaultSweep,
    out_dir: &Path,
    store: &Path,
    code_version: &str,
    tracer: &mut Tracer,
    group: u64,
    out: &mut Outcome,
) -> PassResult {
    let cfg = sweep_cfg(out_dir, store, code_version);
    let started = Instant::now();
    let span = tracer.begin("sweep.run_merge", group, SpanId::NONE);
    let result = sweep
        .run(&cfg)
        .and_then(|run| Ok((run, sweep.merge(&cfg)?)));
    let wall = started.elapsed();
    tracer.end(span, sweep.total_points() as u64);
    let mut res = PassResult {
        wall,
        artifact: None,
        lookups: 0,
        hits: 0,
    };
    out.attempt(1);
    let name = Sweep::name(sweep);
    match result {
        Ok((run, merge)) => {
            let cache = run.cache.unwrap_or_default();
            res.lookups = cache.lookups();
            res.hits = cache.hits;
            match merge.artifact.map(fs::read) {
                Some(Ok(bytes)) => res.artifact = Some(bytes),
                _ => out.fail(format!("{name}: no artifact")),
            }
        }
        Err(e) => out.fail(format!("{name}: {e}")),
    }
    res
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Per-layer metrics of the sweep layer (see the module docs). The
/// warm pass must serve every point from the store and merge the cold
/// pass's artifact byte for byte; the per-call timing checks every
/// store round trip and the sweep's `verify`.
pub fn layer_metrics(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let root = opts
        .work_dir
        .join(format!("sweep-{}-{}", std::process::id(), opts.seed));
    // The seed salts every cache key, so runs never share objects.
    let code_version = format!("perfbench-seed-{}", opts.seed);
    let mut tracer = std::mem::replace(&mut out.tracer, Tracer::off());
    let result = probe(&root, &code_version, &mut tracer, out);
    out.tracer = tracer;
    let _ = fs::remove_dir_all(&root);
    result
}

fn probe(
    root: &Path,
    code_version: &str,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let sweep = FaultSweep::full();
    let store = root.join("store");
    // Store directory creation is lazy set-up: done before timing.
    CasStore::open(&store).map_err(|e| e.to_string())?;
    let group = 1 << 40;
    let cold = pass(
        &sweep,
        &root.join("cold"),
        &store,
        code_version,
        tracer,
        group,
        out,
    );
    let store_bytes = dir_bytes(&store);
    let warm = pass(
        &sweep,
        &root.join("warm"),
        &store,
        code_version,
        tracer,
        group + 1,
        out,
    );
    out.check(
        warm.artifact.is_some() && warm.artifact == cold.artifact,
        || "warm artifact differs from the cold one".into(),
    );
    out.check(warm.hits == warm.lookups && warm.lookups > 0, || {
        format!("warm pass served {} of {} lookups", warm.hits, warm.lookups)
    });

    let mut ctx = LayerCtx {
        store: CasStore::open(root.join("layers")).map_err(|e| e.to_string())?,
        code_version,
        times: LayerTimes::default(),
        tracer,
        group: group + 2,
    };
    layer_times(&sweep, &mut ctx, out);
    let acc = ctx.times;
    out.put_median("sweep.run_point_ms", &acc.run_point_ms);
    out.put_median("sweep.cas_store_us", &acc.store_us);
    out.put_median("sweep.key_us", &acc.key_us);
    out.put_median("sweep.cas_load_us", &acc.load_us);
    out.put_median("sweep.render_ms", &acc.render_ms);
    out.put(
        "sweep.hit_ratio",
        warm.hits as f64 / warm.lookups.max(1) as f64,
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let point_s: f64 = acc.run_point_ms.iter().sum::<f64>() / 1e3;
    out.put(
        "sweep.parallel_efficiency",
        point_s / (cold.wall.as_secs_f64() * cores),
    );
    out.put("sweep.store_bytes", store_bytes as f64);
    Ok(())
}

/// Per-call samples of the sweep layer's public functions.
#[derive(Default)]
struct LayerTimes {
    run_point_ms: Vec<f64>,
    key_us: Vec<f64>,
    store_us: Vec<f64>,
    load_us: Vec<f64>,
    render_ms: Vec<f64>,
}

/// What the per-call timing works with: a store, the samples so far,
/// the tracer and the last span group id.
struct LayerCtx<'a> {
    store: CasStore,
    code_version: &'a str,
    times: LayerTimes,
    tracer: &'a mut Tracer,
    group: u64,
}

/// Time `Sweep::run_point`, the cache key, `CasStore::store` and
/// `CasStore::load` for every point of `s`, then verify + render its
/// artifact. Spans of one point share a group id.
fn layer_times<S: Sweep>(s: &S, ctx: &mut LayerCtx<'_>, out: &mut Outcome) {
    let LayerCtx {
        store,
        code_version,
        times: acc,
        tracer,
        group,
    } = ctx;
    let code_version = *code_version;
    let spec = s.spec();
    let mut rows = Vec::new();
    for p in s.points() {
        *group += 1;
        let point_span = tracer.begin("sweep.point", *group, SpanId::NONE);
        let t = Instant::now();
        let span = tracer.begin("sweep.key", *group, point_span);
        let key = s.key(&p);
        let hash = point_cache_key(Sweep::name(s), &spec, &s.point_params(&p), code_version);
        tracer.end(span, 1);
        acc.key_us.push(t.elapsed().as_secs_f64() * 1e6);

        let t = Instant::now();
        let span = tracer.begin("sweep.run_point", *group, point_span);
        let row = s.run_point(&p);
        tracer.end(span, 1);
        acc.run_point_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let value = match serde_json::to_value(&row) {
            Ok(v) => v,
            Err(e) => {
                out.check(false, || format!("{}: row encode: {e}", Sweep::name(s)));
                continue;
            }
        };
        let meta = ObjectMeta {
            hash: hash.clone(),
            kind: "point",
            name: Sweep::name(s).to_string(),
            key: key.clone(),
            code_version: code_version.to_string(),
            inputs: Vec::new(),
        };
        let t = Instant::now();
        let span = tracer.begin("sweep.cas_store", *group, point_span);
        let stored = store.store(&meta, &value);
        tracer.end(span, 1);
        acc.store_us.push(t.elapsed().as_secs_f64() * 1e6);

        let t = Instant::now();
        let span = tracer.begin("sweep.cas_load", *group, point_span);
        let loaded = store.load(&hash, Some(&key));
        tracer.end(span, 1);
        acc.load_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(point_span, 1);
        let round_trip = matches!(&loaded, Ok(Some(obj)) if obj.row == value);
        out.check(stored.is_ok() && round_trip, || {
            format!("{} {key}: store round trip failed", Sweep::name(s))
        });
        rows.push(row);
    }
    let t = Instant::now();
    let verified = s.verify(&rows);
    let rendered = s.render_artifact(&rows);
    acc.render_ms.push(t.elapsed().as_secs_f64() * 1e3);
    out.check(verified.is_ok() && rendered.is_ok(), || {
        format!("{}: verify or render failed", Sweep::name(s))
    });
}
