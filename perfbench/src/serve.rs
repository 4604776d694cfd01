//! `serve-tcp`: an `rsp-serve` `Server` on TCP loopback, driven by a
//! closed loop of two client threads with one connection each. Per
//! tenant a client connects, submits, polls `Status` back to back until
//! `Done`, fetches telemetry and disconnects, then submits the next.
//! Tenants are shaped like `rsp-serve drive`'s fleet: three in four are
//! short scalar synth tenants, every fourth a lane tenant. Stepping per
//! tenant is small, so protocol, admission, scheduling, SLO and
//! telemetry costs dominate.

use std::io;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rsp_serve::protocol::{self, Request, Response};
use rsp_serve::{
    replay, EngineConfig, EngineStats, MetricsFrame, ServeClient, ServeEngine, Server,
    ServerConfig, TenantPhase, TenantRequest, TenantStatus,
};
use rsp_sim::SimConfig;
use rsp_workloads::{LaneTraceSpec, StreamSpec, SynthSpec, UnitMix};

use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{mix_seed, put_op_latencies, split_traced, timed_setup, Opts};

/// Client threads, one connection each (the host has two cores).
const CLIENTS: u64 = 2;

/// Every n-th tenant is a lane tenant (as in `rsp-serve drive`).
const LANE_EVERY: u64 = 4;

/// Every n-th scalar tenant is replayed offline and compared.
const REPLAY_EVERY: u64 = 8;

/// Cycle budget of every tenant, `rsp-serve drive`'s default.
const TENANT_CYCLES: u64 = 20_000;

/// Tenant `i` of the mix for `seed`, shaped like `rsp-serve drive`'s
/// fleet with its defaults: synth bodies of 200 instructions rotating
/// the named mixes, lane traces of min(cycles, 4096) cycles.
fn tenant_request(seed: u64, i: u64) -> TenantRequest {
    let s = mix_seed(seed, i);
    if i % LANE_EVERY == LANE_EVERY - 1 {
        return TenantRequest::new(StreamSpec::lane(
            format!("bench-lane-{i}"),
            LaneTraceSpec::synthetic_mix(TENANT_CYCLES.min(4096) as u32, s),
            TENANT_CYCLES,
        ));
    }
    let mixes = UnitMix::named();
    let (name, mix) = mixes[(i % mixes.len() as u64) as usize];
    TenantRequest::new(StreamSpec::synth(
        format!("bench-{name}-{i}"),
        SynthSpec {
            body_len: 200,
            ..SynthSpec::new("bench", mix, s)
        },
        TENANT_CYCLES,
    ))
}

/// A running server on an ephemeral loopback port.
struct Running {
    addr: String,
    thread: Option<JoinHandle<io::Result<EngineStats>>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            thread: Some(thread),
        })
    }

    /// Ask the server to stop and wait for it; its final counters.
    fn stop(&mut self) -> Result<EngineStats, String> {
        let Some(thread) = self.thread.take() else {
            return Err("server already stopped".into());
        };
        // Only a server that acknowledged the shutdown will exit; never
        // wait on one that did not.
        ServeClient::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.stop();
        }
    }
}

/// One tenant as a client saw it.
#[derive(Debug, Clone)]
struct TenantRun {
    index: u64,
    req: TenantRequest,
    id: Option<u64>,
    status: Option<TenantStatus>,
    jsonl: String,
    polls: u64,
    connect_us: f64,
    status_us: Vec<f64>,
    tenant_ms: f64,
    error: Option<String>,
}

/// Run one tenant over a fresh connection.
fn one_tenant(addr: &str, seed: u64, index: u64, tracer: &mut Tracer) -> TenantRun {
    let req = tenant_request(seed, index);
    let mut run = TenantRun {
        index,
        req: req.clone(),
        id: None,
        status: None,
        jsonl: String::new(),
        polls: 0,
        connect_us: 0.0,
        status_us: Vec::new(),
        tenant_ms: 0.0,
        error: None,
    };
    let tenant_span = tracer.begin("tenant", index, SpanId::NONE);
    let result = (|| -> io::Result<()> {
        let start = Instant::now();
        let span = tracer.begin("rpc.connect", index, tenant_span);
        let mut client = ServeClient::connect(addr)?;
        tracer.end(span, 1);
        let submitted = Instant::now();
        let span = tracer.begin("rpc.submit", index, tenant_span);
        let admitted = client.submit(req)?;
        tracer.end(span, 1);
        run.connect_us = start.elapsed().as_secs_f64() * 1e6;
        let id = match admitted {
            Ok(id) => id,
            Err(reason) => {
                return Err(io::Error::other(format!("shed: {reason}")));
            }
        };
        run.id = Some(id);
        loop {
            let t = Instant::now();
            let span = tracer.begin("rpc.status", index, tenant_span);
            let status = client.status(id)?;
            tracer.end(span, 1);
            run.status_us.push(t.elapsed().as_secs_f64() * 1e6);
            run.polls += 1;
            let Some(status) = status else {
                return Err(io::Error::other("tenant vanished"));
            };
            let finished = matches!(status.phase, TenantPhase::Done | TenantPhase::Failed);
            run.status = Some(status);
            if finished {
                break;
            }
        }
        run.tenant_ms = submitted.elapsed().as_secs_f64() * 1e3;
        let span = tracer.begin("rpc.telemetry", index, tenant_span);
        run.jsonl = client.telemetry(id)?.unwrap_or_default();
        tracer.end(span, run.jsonl.len() as u64);
        Ok(())
    })();
    tracer.end(tenant_span, 1);
    if let Err(e) = result {
        run.error = Some(e.to_string());
    }
    run
}

/// Closed-loop load for `window`: [`CLIENTS`] threads, tenant indices
/// interleaved from `first`. Returns the tenants and the elapsed wall.
fn load(
    addr: &str,
    seed: u64,
    first: u64,
    window: Duration,
    tracer: &mut Tracer,
) -> (Vec<TenantRun>, Duration) {
    let t0 = Instant::now();
    let (mut runs, forks) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut fork = tracer.fork(c);
                scope.spawn(move || {
                    let mut runs = Vec::new();
                    let mut index = first + c;
                    while t0.elapsed() < window {
                        runs.push(one_tenant(addr, seed, index, &mut fork));
                        index += CLIENTS;
                    }
                    (runs, fork)
                })
            })
            .collect();
        let mut runs = Vec::new();
        let mut forks = Vec::new();
        for h in handles {
            let (r, f) = h.join().expect("client thread panicked");
            runs.extend(r);
            forks.push(f);
        }
        (runs, forks)
    });
    for f in forks {
        tracer.absorb(f);
    }
    runs.sort_by_key(|r| r.index);
    (runs, t0.elapsed())
}

/// Every tenant admitted, done, with telemetry; sampled tenants replay
/// offline bit-identically.
fn check_tenants(runs: &[TenantRun], base: &SimConfig, out: &mut Outcome) {
    for r in runs {
        let ok = r.error.is_none()
            && r.status
                .as_ref()
                .is_some_and(|s| s.phase == TenantPhase::Done)
            && !r.jsonl.is_empty();
        out.check(ok, || {
            format!(
                "tenant {}: {}",
                r.index,
                r.error
                    .clone()
                    .unwrap_or_else(|| "not done or no telemetry".into())
            )
        });
        let sampled = r.index % LANE_EVERY == LANE_EVERY - 1 || r.index % REPLAY_EVERY == 0;
        if ok && sampled {
            let same = replay(base, &r.req).is_ok_and(|offline| offline == r.jsonl);
            out.check(same, || {
                format!("tenant {}: offline replay differs", r.index)
            });
        }
    }
}

/// Run the workload.
pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let base = ServerConfig::default().engine.base;
    let (mut server, resetup) = timed_setup(opts, || {
        let server = Running::start()?;
        // Warm the engine: pool, first lane group, first connection.
        for i in [0, LANE_EVERY - 1] {
            let r = one_tenant(&server.addr, opts.seed, u64::MAX - i, &mut Tracer::off());
            if let Some(e) = r.error {
                return Err(format!("warm-up tenant: {e}"));
            }
        }
        Ok(server)
    })?;
    // The load runs on client threads with no passes in between, so the
    // set-up repeats run here, before it; set-up waits on the transport
    // more than on the CPU, so one block of repeats is steady.
    resetup.finish(out);

    let (runs, wall, plain) = if opts.trace {
        // Tenant indices of the traced half start past the plain half's.
        let mut first = 0;
        let ((plain, plain_wall), (traced, wall)) = split_traced(opts, out, |window, tracer, _| {
            let r = load(&server.addr, opts.seed, first, window, tracer);
            first = 1 << 32;
            r
        });
        check_tenants(&plain, &base, out);
        (traced, wall, Some((plain, plain_wall)))
    } else {
        let (runs, wall) = load(
            &server.addr,
            opts.seed,
            0,
            opts.window(),
            &mut Tracer::off(),
        );
        (runs, wall, None)
    };
    check_tenants(&runs, &base, out);

    let frame = ServeClient::connect(&server.addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("metrics: {e}"))?;
    let stats = server.stop()?;
    out.check(stats.shed_bad_spec == 0, || {
        format!("{} BadSpec sheds", stats.shed_bad_spec)
    });

    if let Some((plain, plain_wall)) = plain {
        let rate = |runs: &[TenantRun], wall: Duration| runs.len() as f64 / wall.as_secs_f64();
        out.put(
            "trace.overhead",
            rate(&plain, plain_wall) / rate(&runs, wall) - 1.0,
        );
        // Round trips of both halves: one half alone has too few
        // samples beyond p95.
        let both: Vec<&TenantRun> = plain.iter().chain(&runs).collect();
        rpc_metrics(opts, &both, out);
        layer_metrics(opts, &runs, &stats, &frame, out)?;
        return Ok(());
    }
    // The operation is a tenant, submit to `Done` observed; the load is
    // timer-bound (each `Status` round trip waits on the transport), so
    // these come from every tenant of the run, and the work rate is the
    // closed loop's completed tenants over the window.
    let tenant_us: Vec<f64> = runs
        .iter()
        .filter(|r| r.error.is_none())
        .map(|r| r.tenant_ms * 1e3)
        .collect();
    out.put("work_per_s", tenant_us.len() as f64 / wall.as_secs_f64());
    put_op_latencies(opts, out, &tenant_us);
    Ok(())
}

/// `Status` round trips and connect → first response, client side.
fn rpc_metrics(opts: &Opts, runs: &[&TenantRun], out: &mut Outcome) {
    let status_us: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.status_us.iter().copied())
        .collect();
    out.put_median("serve.rpc_p50_us", &status_us);
    out.put_tail("serve.rpc_p95_us", &status_us, 0.95, !opts.smoke);
    let connect: Vec<f64> = runs
        .iter()
        .filter(|r| r.error.is_none())
        .map(|r| r.connect_us)
        .collect();
    out.put_median("serve.connect_p50_us", &connect);
}

/// Mean µs per call of `f` over `items`, median of `rounds` rounds.
fn time_each<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for it in items {
                f(it);
            }
            t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .collect();
    median(&per_round)
}

/// Per-layer metrics: the protocol functions on this run's own
/// payloads, the engine driven in process on the same mix, and the
/// server's own counters and SLO histograms.
fn layer_metrics(
    opts: &Opts,
    runs: &[TenantRun],
    stats: &EngineStats,
    frame: &MetricsFrame,
    out: &mut Outcome,
) -> Result<(), String> {
    let sample: Vec<&TenantRun> = runs.iter().filter(|r| r.error.is_none()).take(64).collect();
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for r in &sample {
        let id = r.id.unwrap_or_default();
        requests.push(Request::Submit(r.req.clone()));
        requests.push(Request::Status { id });
        requests.push(Request::Telemetry { id });
        responses.push(Response::Admitted { id });
        if let Some(s) = &r.status {
            responses.push(Response::Status(s.clone()));
        }
        responses.push(Response::Telemetry {
            id,
            jsonl: r.jsonl.clone(),
        });
    }
    let rounds = if opts.smoke { 1 } else { 5 };
    let mut buf = Vec::new();
    let write_us = time_each(&responses, rounds, |m| {
        buf.clear();
        protocol::write_frame(&mut buf, m).expect("in-memory write");
    });
    let frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            protocol::write_frame(&mut b, m).expect("in-memory write");
            b
        })
        .collect();
    let read_us = time_each(&frames, rounds, |f| {
        std::hint::black_box(protocol::read_frame(&mut f.as_slice()).expect("well-formed frame"));
    });
    let texts: Vec<String> = frames
        .iter()
        .map(|f| {
            protocol::read_frame(&mut f.as_slice())
                .ok()
                .flatten()
                .unwrap_or_default()
        })
        .collect();
    let decode_us = time_each(&texts, rounds, |t| {
        std::hint::black_box(protocol::decode::<Response>(t).expect("decodes"));
    });
    let req_texts: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap_or_default())
        .collect();
    for t in &req_texts {
        out.check(protocol::decode::<Request>(t).is_ok(), || {
            "request decode".into()
        });
    }
    out.put("serve.write_frame_us", write_us);
    out.put("serve.read_frame_us", read_us);
    out.put("serve.decode_us", decode_us);

    // The engine in process, two tenants at a time like the clients.
    let mut engine = ServeEngine::with_defaults(EngineConfig::default());
    let reqs: Vec<TenantRequest> = sample.iter().map(|r| r.req.clone()).collect();
    let mut submit_us = Vec::new();
    let mut tick_us = Vec::new();
    let mut ids = Vec::new();
    for pair in reqs.chunks(CLIENTS as usize) {
        for r in pair {
            let r = r.clone();
            let t = Instant::now();
            let admitted = engine.submit(r);
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            match admitted {
                Ok(id) => ids.push(id),
                Err(reason) => out.check(false, || format!("in-process shed: {reason}")),
            }
        }
        while !engine.is_idle() {
            let t = Instant::now();
            engine.tick();
            tick_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.put_median("serve.submit_us", &submit_us);
    out.put_median("serve.tick_us", &tick_us);
    let es = engine.stats();
    out.put(
        "serve.cycles_per_tick",
        es.stepped_cycles as f64 / es.ticks.max(1) as f64,
    );
    let telemetry_us: Vec<f64> = ids
        .iter()
        .map(|&id| {
            let t = Instant::now();
            let resp = Response::Telemetry {
                id,
                jsonl: engine.telemetry(id).unwrap_or_default().to_string(),
            };
            buf.clear();
            protocol::write_frame(&mut buf, &resp).expect("in-memory write");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.put_median("serve.telemetry_us", &telemetry_us);

    let ok: Vec<&TenantRun> = runs.iter().filter(|r| r.error.is_none()).collect();
    let bytes: Vec<f64> = ok.iter().map(|r| r.jsonl.len() as f64).collect();
    out.put_median("serve.telemetry_bytes_per_tenant", &bytes);
    let polls: u64 = ok.iter().map(|r| r.polls).sum();
    out.put(
        "serve.status_polls_per_tenant",
        polls as f64 / ok.len().max(1) as f64,
    );
    out.put(
        "serve.poll_useful_ratio",
        ok.len() as f64 / polls.max(1) as f64,
    );
    out.put(
        "serve.shed_ratio",
        stats.shed_total() as f64 / stats.submitted.max(1) as f64,
    );
    out.put(
        "serve.pool_reuse_ratio",
        stats.pool.reuses as f64 / stats.pool.leases.max(1) as f64,
    );
    let lane_tenants = frame.tenants.iter().filter(|t| t.lane).count() as f64;
    out.put(
        "serve.lane_fill",
        lane_tenants / frame.stats.lane_groups_formed.max(1) as f64 / 64.0,
    );
    let p99 = |name: &str| {
        frame
            .aggregate
            .histogram(name)
            .map_or(0.0, |h| h.quantile(0.99) as f64)
    };
    out.put("serve.queue_residency_p99_ticks", p99("queue_residency"));
    out.put(
        "serve.admit_to_first_step_p99_ticks",
        p99("admit_to_first_step"),
    );
    Ok(())
}
