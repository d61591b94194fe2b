//! `serve-closed`: an in-process `hydra-serve` server (`Server::spawn` on
//! loopback) boots a resident DSTree/iSAX2+/HNSW snapshot directory over
//! `deep-like` (8000×96). Two `ServeClient` connections drive a closed
//! loop: each sends its next request when the previous reply arrives.
//! Cheap ng and δ-ε settings (k = 10) keep search a minority of the
//! served time, so the batcher queue, wire codec and connection threads
//! show.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use hydra::{Neighbor, PageCodec, SearchParams};
use hydra_serve::{
    Request, ResponseBody, ServeClient, ServedIndex, Server, ServerConfig, ServerHandle,
};

use super::{inputs, setup_reps, write_spans, Input, SetupFacts, Slices, SETUP_REPS};
use crate::cells::{Cell, Observed};
use crate::gen::{self, Family};
use crate::methods::{self, Method};
use crate::trace::Tracer;
use crate::truth::{check, mode_label, Accounting, Guarantee};
use crate::{median, Outcome, RunConfig, Scale};

/// Neighbours per served query.
pub const SERVE_K: usize = 10;

/// Client connections of the closed loop.
pub const CONNECTIONS: usize = 2;

const METHODS: [Method; 3] = [Method::DsTree, Method::Isax, Method::Hnsw];

/// The request mix: (method, settings), cycled through request by request.
fn mix() -> Vec<(Method, SearchParams)> {
    vec![
        (Method::DsTree, SearchParams::ng(SERVE_K, 1)),
        (
            Method::DsTree,
            SearchParams::delta_epsilon(SERVE_K, 0.5, 2.0),
        ),
        (Method::Isax, SearchParams::ng(SERVE_K, 64)),
        (Method::Isax, SearchParams::delta_epsilon(SERVE_K, 0.5, 2.0)),
        (Method::Hnsw, SearchParams::ng(SERVE_K, 16)),
    ]
}

fn served_name(input: &str, method: Method) -> String {
    format!("{input}-{}", method.key())
}

/// A running server with its connected clients.
struct Served {
    handle: ServerHandle,
    clients: Vec<ServeClient>,
}

impl Served {
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.handle.shutdown();
        let stats = self.handle.join();
        if stats.connections < CONNECTIONS as u64 {
            return Err(format!("server saw {} connections", stats.connections));
        }
        Ok(())
    }
}

fn connect(addr: SocketAddr) -> Result<ServeClient, String> {
    let client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("cannot set a read timeout: {e}"))?;
    Ok(client)
}

/// Builds and saves the three indexes, boots the directory and spawns the
/// server with its two client connections. Returns it with Σ
/// `memory_footprint()` in MiB.
fn setup(dir: &Path, input: &Input) -> Result<(Served, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    hydra::persist::dataset::save_dataset(
        &input.data,
        &dir.join(format!("{}.data.snap", input.name)),
    )
    .map_err(|e| format!("cannot save the dataset: {e}"))?;
    let cfg = methods::configs(true, None, PageCodec::F32);
    for method in METHODS {
        let path = dir.join(format!("{}.snap", served_name(input.name, method)));
        methods::build(method, &input.data, &cfg, Some(&path))?;
    }
    let indexes = boot(dir)?;
    let index_mb = indexes
        .iter()
        .map(|s| s.index.memory_footprint())
        .sum::<usize>() as f64
        / 1048576.0;
    let handle = Server::spawn(indexes, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("cannot spawn the server: {e}"))?;
    let addr = handle.local_addr();
    let clients = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((Served { handle, clients }, index_mb))
}

fn boot(dir: &Path) -> Result<Vec<ServedIndex>, String> {
    let registry = methods::registry(true, None, PageCodec::F32);
    hydra_serve::boot_from_dir(dir, &registry)
        .map(|report| report.indexes)
        .map_err(|e| format!("boot of {} failed: {e}", dir.display()))
}

/// One answered request: which query and mix entry it carried, when it
/// was issued, its round trip, and its answer.
struct Reply {
    query: usize,
    entry: usize,
    start: Instant,
    latency: Duration,
    answer: Result<Vec<Neighbor>, ()>,
}

/// What one closed-loop client sends: request `i` carries mix entry
/// `i % mix.len()` and query `(i * 7 + offset) % nq`.
fn request(i: usize, client: usize, nq: usize, mix_len: usize) -> (usize, usize) {
    (i % mix_len, (i * 7 + client * 101) % nq)
}

/// Drives one connection in a closed loop until `stop`; with `traced`,
/// each round trip also leaves a client-side span.
fn drive(
    client: &mut ServeClient,
    c: usize,
    input: &Input,
    mix: &[(Method, SearchParams)],
    stop: Stop,
    traced: bool,
) -> Vec<Reply> {
    let nq = input.queries.len();
    let mut tracer = Tracer::new(traced);
    let label = tracer.label("round_trip");
    let names: Vec<String> = mix
        .iter()
        .map(|(m, _)| served_name(input.name, *m))
        .collect();
    let mut replies = Vec::new();
    let started = Instant::now();
    for i in 0.. {
        match stop {
            Stop::Fixed(n) if i >= n => break,
            Stop::After(d, min) if started.elapsed() >= d && i >= min => break,
            _ => {}
        }
        let (entry, query) = request(i, c, nq, mix.len());
        let req = Request::Query {
            request_id: client.fresh_id(),
            index: names[entry].clone(),
            params: mix[entry].1,
            query: input.queries.series(query).to_vec(),
        };
        let start = Instant::now();
        let response = client.call(&req);
        let latency = start.elapsed();
        tracer.record("serve", label, req.request_id(), 1, start, latency);
        let answer = match response {
            Ok(r) => match r.body {
                ResponseBody::Answer { neighbors } => Ok(neighbors),
                _ => Err(()),
            },
            Err(_) => Err(()),
        };
        let failed = answer.is_err();
        replies.push(Reply {
            query,
            entry,
            start,
            latency,
            answer,
        });
        if failed
            && matches!(stop, Stop::After(..))
            && replies.iter().rev().take(100).all(|r| r.answer.is_err())
        {
            break; // the connection is gone; stop rather than spin
        }
    }
    replies
}

#[derive(Clone, Copy)]
enum Stop {
    Fixed(usize),
    After(Duration, usize),
}

/// All connections at once; returns every reply and the wall time.
fn closed_loop(
    served: &mut Served,
    input: &Input,
    mix: &[(Method, SearchParams)],
    stop: Stop,
    traced: bool,
) -> (Vec<Reply>, f64) {
    let t = Instant::now();
    let replies = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || drive(client, c, input, mix, stop, traced)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (replies, t.elapsed().as_secs_f64())
}

fn account(
    replies: &[Reply],
    input: &Input,
    mix: &[(Method, SearchParams)],
    acct: &mut Accounting,
) {
    let n = input.data.len();
    for r in replies {
        let (method, params) = &mix[r.entry];
        let cell = format!(
            "serve-closed/{}/{}/{}",
            input.name,
            method.key(),
            mode_label(params)
        );
        let verdict = check(
            r.answer.as_deref().map_err(|_| ()),
            SERVE_K,
            &input.data,
            n,
            input.queries.series(r.query),
            &input.truth[r.query],
            Guarantee::None,
        );
        acct.record(&cell, verdict);
    }
}

/// Runs the workload.
///
/// # Errors
/// A build, save, boot or spawn failure.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (n, nq, fixed) = match cfg.scale {
        Scale::Full => (8000, 600, 400),
        Scale::Probe => (1500, 40, 100),
    };
    let input = inputs(cfg.seed, n, nq, &[("deep-like", Family::DeepLike, 96)])
        .pop()
        .expect("one input");
    let input = Input {
        truth: input
            .truth
            .iter()
            .map(|e| crate::truth::Exact {
                ids: e.ids[..SERVE_K].to_vec(),
                dists: e.dists[..SERVE_K].to_vec(),
            })
            .collect(),
        ..input
    };
    let digest = gen::digest(&input.data) ^ gen::digest(&input.queries);
    let mix = mix();
    let reps = setup_reps(cfg, SETUP_REPS);
    let mut setup_s = Vec::new();
    let mut slices = Slices::default();
    let mut acct = Accounting::default();
    let mut out = Outcome {
        input_digest: digest,
        ..Outcome::default()
    };
    let mut index_mb = 0.0;
    for rep in 0..reps {
        let dir = cfg.workdir.join(format!("rep{rep}"));
        let t = Instant::now();
        let (mut served, mb) = setup(&dir, &input)?;
        setup_s.push(t.elapsed().as_secs_f64());
        index_mb = mb;
        if cfg.trace {
            let local = boot(&dir)?;
            let t = traced(cfg, &mut served, &local, &input, &mix, fixed, &mut acct)?;
            out = Outcome {
                input_digest: digest,
                ..t
            };
        } else {
            let min = if rep + 1 < reps {
                0
            } else {
                crate::MIN_SAMPLES
                    .saturating_sub(slices.samples())
                    .div_ceil(CONNECTIONS)
            };
            let stop = Stop::After(Duration::from_secs_f64(cfg.seconds / reps as f64), min);
            let (replies, wall) = closed_loop(&mut served, &input, &mix, stop, false);
            account(&replies, &input, &mix, &mut acct);
            let lat: Vec<u64> = replies
                .iter()
                .map(|r| r.latency.as_nanos() as u64)
                .collect();
            slices.push(replies.len() as f64 / wall, &lat);
        }
        served.stop()?;
    }
    if !cfg.trace {
        let facts = SetupFacts {
            setup_s: median(&setup_s),
            index_mb,
        };
        out.metrics = slices.metrics(&acct, facts);
        out.samples = slices.samples();
    }
    let total = acct.total();
    out.attempted = total.attempted;
    out.failed = total.failed;
    out.violations = acct.violation_lines();
    Ok(out)
}

/// The traced run: per-method and counter metrics from an in-process copy
/// of the served indexes answering the same mix (served answers and
/// `QueryStats` equal offline ones by contract), then serving-layer
/// metrics from the `Stats` scrape around a fixed traced closed-loop pass,
/// then the tracing overhead.
fn traced(
    cfg: &RunConfig,
    served: &mut Served,
    local: &[ServedIndex],
    input: &Input,
    mix: &[(Method, SearchParams)],
    fixed: usize,
    acct: &mut Accounting,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let mut obs = Observed::default();
    let nq = input.queries.len();
    let per_entry = (nq / mix.len()).max(1);
    for (e, (method, params)) in mix.iter().enumerate() {
        let index = local
            .iter()
            .find(|s| s.name == served_name(input.name, *method))
            .expect("booted every method");
        let cell = Cell {
            name: format!(
                "serve-closed/offline/{}/{}",
                method.key(),
                mode_label(params)
            ),
            method: *method,
            index: index.index.as_ref(),
            params: *params,
            data: &input.data,
            n: input.data.len(),
            queries: (0..per_entry)
                .map(|i| {
                    let q = (e * per_entry + i) % nq;
                    (input.queries.series(q), &input.truth[q])
                })
                .collect(),
            per_pass: per_entry,
            batch: 1,
        };
        obs.pass(&cell, 0, &mut tracer);
    }
    out.metrics = obs.layer_metrics(&tracer);
    out.counters = Some(obs.counters());
    let before = scrape(&mut served.clients[0])?;
    let (replies, _) = closed_loop(served, input, mix, Stop::Fixed(fixed), true);
    let after = scrape(&mut served.clients[0])?;
    let label = tracer.label("round_trip");
    for (i, r) in replies.iter().enumerate() {
        tracer.record("serve", label, i as u64 + 1, 1, r.start, r.latency);
    }
    write_spans(cfg, &tracer);
    account(&replies, input, mix, acct);
    let rtt_us = replies.iter().map(|r| r.latency.as_secs_f64()).sum::<f64>() * 1e6
        / replies.len().max(1) as f64;
    out.metrics.extend(serve_metrics(&before, &after, rtt_us));
    out.samples = replies.len();
    if cfg.seconds > 0.0 {
        let window = Duration::from_secs_f64((cfg.seconds / 8.0).max(0.25));
        let overhead = super::overhead(cfg.seconds, |traced| {
            let (replies, wall) = closed_loop(served, input, mix, Stop::After(window, 0), traced);
            replies.len() as f64 / wall
        });
        out.metrics
            .insert("obs.trace_overhead_frac".into(), overhead);
    }
    Ok(out)
}

fn scrape(client: &mut ServeClient) -> Result<BTreeMap<String, f64>, String> {
    let text = client
        .stats()
        .map_err(|e| format!("stats scrape failed: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn serve_metrics(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    rtt_us: f64,
) -> BTreeMap<String, f64> {
    let d = |key: &str| {
        after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
    };
    let mean = |family: &str, labels: &str| {
        d(&format!("{family}_sum{labels}")) / d(&format!("{family}_count{labels}")).max(1.0)
    };
    let queries = d("hydra_queries_total").max(1.0);
    let mut m = BTreeMap::new();
    m.insert(
        "serve.queue_wait_us".into(),
        mean("hydra_stage_micros", "{stage=\"enqueue\"}"),
    );
    m.insert(
        "serve.search_us".into(),
        mean("hydra_stage_micros", "{stage=\"shard_search\"}"),
    );
    m.insert(
        "serve.write_us".into(),
        mean("hydra_stage_micros", "{stage=\"write\"}"),
    );
    m.insert(
        "serve.batch_occupancy".into(),
        mean("hydra_batch_occupancy", ""),
    );
    m.insert(
        "serve.batch_calls_per_query".into(),
        d("hydra_batch_calls_total") / queries,
    );
    m.insert(
        "serve.wire_us".into(),
        rtt_us - mean("hydra_query_micros", ""),
    );
    m
}
