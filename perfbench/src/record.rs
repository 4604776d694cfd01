//! Result records: the stamped record kept per run and the one-line
//! result the benchmark ends its output with.

use serde_json::Value;

use crate::metrics::Outcome;
use crate::Opts;

/// Where and with what a result was produced.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Host name.
    pub host: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Git commit of the tree, or `none` outside a git checkout.
    pub commit: &'static str,
}

impl Stamp {
    /// This process's stamp.
    pub fn here() -> Stamp {
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|h| h.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Stamp {
            host,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: env!("PERFBENCH_COMMIT"),
        }
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn str_v(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn int_v(n: u64) -> Value {
    Value::Int(i128::from(n))
}

/// The last line of the output: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name → value and unit).
pub fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.def.name.to_string(),
                obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", str_v(m.def.unit)),
                ]),
            )
        })
        .collect();
    let v = obj(vec![
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", int_v(out.attempted)),
        ("failed", int_v(out.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&v).expect("plain values encode")
}

/// The stamped record: host, cores, compiler, commit, seed, set-up
/// repetitions, and per metric its value, sample count and quartiles.
pub fn record_line(workload: &str, opts: &Opts, out: &Outcome, stamp: &Stamp) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let mut f = vec![
                ("value", Value::Float(m.value)),
                ("unit", str_v(m.def.unit)),
                ("better", str_v(m.def.better.as_str())),
            ];
            if let Some(s) = m.summary {
                f.push(("n", int_v(s.n as u64)));
                f.push(("q1", Value::Float(s.q1)));
                f.push(("median", Value::Float(s.median)));
                f.push(("q3", Value::Float(s.q3)));
            } else {
                f.push(("n", int_v(1)));
            }
            (m.def.name.to_string(), obj(f))
        })
        .collect();
    let setup_repeats = out
        .metrics
        .iter()
        .find(|m| m.def.name == "setup_s")
        .and_then(|m| m.summary)
        .map_or(1, |s| s.n as u64);
    let self_times = out
        .tracer
        .self_times()
        .into_iter()
        .map(|(name, spans, total, own)| {
            obj(vec![
                ("span", str_v(name)),
                ("count", int_v(spans)),
                ("total_ns", int_v(total)),
                ("self_ns", int_v(own)),
            ])
        })
        .collect();
    let v = obj(vec![
        ("workload", str_v(workload)),
        ("seed", int_v(opts.seed)),
        ("seconds", Value::Float(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("host", str_v(&stamp.host)),
        ("nproc", int_v(stamp.nproc as u64)),
        ("rustc", str_v(stamp.rustc)),
        ("commit", str_v(stamp.commit)),
        ("setup_repeats", int_v(setup_repeats)),
        ("attempted", int_v(out.attempted)),
        ("failed", int_v(out.failed)),
        (
            "failures",
            Value::Array(out.failures.iter().map(|f| str_v(f)).collect()),
        ),
        ("metrics", Value::Object(metrics)),
        ("span_self_times", Value::Array(self_times)),
    ]);
    serde_json::to_string(&obj(vec![("record", v)])).expect("plain values encode")
}
