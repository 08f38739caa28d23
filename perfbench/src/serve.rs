//! Workload `serve`: a synthesized 2^22-address store of 3 protocols ×
//! 3 trials × 7 origins (63 keys) behind `QueryEngine::open` and
//! `Server::start`, loaded by a closed loop of two clients, one
//! connection per request, in two phases:
//!
//! * `cold` — an engine with emptied caches answers seeded chunks of
//!   distinct queries, so every request misses the response memo and
//!   store reads and set kernels do the work;
//! * `warm` — a hot set of 200 queries, which fits the memo, is primed
//!   and then replayed, so every request hits the memo and the HTTP path
//!   does the work.
//!
//! Every response body must equal `execute_text` on an independent
//! engine over the same store file. Each request is a trace of its own;
//! the phases are root spans of trace 0.

use crate::report::{hex, median, peak_rss_mib, percentile, Report};
use crate::spans::{Handle, Spans};
use originscan_bench::jsonv::JsonValue;
use originscan_serve::query::{fnv1a64, Query};
use originscan_serve::trace::TRACE_RING_CAPACITY;
use originscan_serve::{QueryEngine, Server, ServerConfig};
use originscan_store::{ScanSet, ScanSetStore, StoreKey, StoreReader};
use originscan_telemetry::metrics::names;
use originscan_telemetry::{Profile, Scope, SpanRecord, Telemetry};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Synthetic address space.
const SPACE: u32 = 1 << 22;
/// Protocols and their host densities.
const PROTOS: [(&str, f64); 3] = [("HTTP", 0.05), ("HTTPS", 0.04), ("SSH", 0.03)];
const TRIALS: u8 = 3;
const ORIGINS: u16 = 7;
/// Closed-loop clients (the benchmark host's core count).
const CLIENTS: usize = 2;
/// Distinct queries in a cold chunk, which runs on emptied caches. Only
/// 63 `exclusive` queries are distinct, so a chunk holds at most 430.
const COLD_CHUNK: usize = 328;
/// Chunks in a cold phase, so that its p99 has 13 samples beyond it.
const COLD_CHUNKS: usize = 4;
/// Cold phases per process.
const COLD_PHASES: usize = 3;
/// Queries in the warm phase's hot set.
const HOT_QUERIES: usize = 200;
/// Replays of the hot set in one warm phase: 2000 requests, so that its
/// p99 has 20 samples beyond it.
const WARM_ROUNDS: usize = 10;
/// Warm phases per process. A warm phase lasts about 0.1 s, so a burst
/// of interference on the host can spoil a few phases without deciding
/// the process's median.
const WARM_PHASES: usize = 20;
/// Set-ups per process; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Warm attribution passes in the traced run. A warm request lasts
/// about 80 µs, so one pass of 256 is over in 20 ms and a single stall
/// of the host would decide it.
const WARM_ATTRIBUTION_PASSES: usize = 8;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Correlated origin views: per protocol a shared host population, per
/// trial a little churn, per origin about 10% independent misses.
fn synth_store(seed: u64) -> ScanSetStore {
    let mut store = ScanSetStore::new();
    for (p, &(proto, density)) in PROTOS.iter().enumerate() {
        let mut hosts_rng = seed ^ (0x5EED_0000 + p as u64);
        let threshold = (density * f64::from(u32::MAX)) as u64;
        let hosts: Vec<u32> = (0..SPACE)
            .filter(|_| splitmix(&mut hosts_rng) & 0xFFFF_FFFF < threshold)
            .collect();
        for trial in 0..TRIALS {
            let mut churn = seed ^ ((p as u64) << 40) ^ (u64::from(trial) << 32) ^ 0xC4;
            let alive: Vec<u32> = hosts
                .iter()
                .copied()
                .filter(|_| splitmix(&mut churn) & 0xFF >= 13)
                .collect();
            for origin in 0..ORIGINS {
                let mut miss = churn ^ (u64::from(origin) << 16) ^ 0xC0FFEE;
                let seen: Vec<u32> = alive
                    .iter()
                    .copied()
                    .filter(|_| splitmix(&mut miss) & 0xFF >= 26)
                    .collect();
                store.insert(
                    StoreKey::new(proto, trial, origin),
                    ScanSet::from_sorted(&seen),
                );
            }
        }
    }
    store
}

/// Query kinds and their weights: the proportions of the mix the
/// `perf_serve` bench sends (its `query_mix`, over six origins): per
/// origin one coverage, one exclusive, one rank and one member query, a
/// diff per pair of origins, and two best-k plans.
const MIX: [(&str, i64); 6] = [
    ("coverage", 6),
    ("diff", 15),
    ("exclusive", 6),
    ("rank", 6),
    ("member", 6),
    ("best-k", 2),
];

/// The kinds of one cycle of [`MIX`], each as often as its weight and
/// spread evenly (smooth weighted round robin), so that every seed
/// sends the same mix in the same order.
fn schedule() -> Vec<&'static str> {
    let total: i64 = MIX.iter().map(|m| m.1).sum();
    let mut credit = [0i64; MIX.len()];
    (0..total)
        .map(|_| {
            for (c, m) in credit.iter_mut().zip(&MIX) {
                *c += m.1;
            }
            let best = (0..MIX.len())
                .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                .unwrap_or(0);
            credit[best] -= total;
            MIX[best].0
        })
        .collect()
}

/// One random query of `kind` over the store's keys. The `b`-th `best-k`
/// of a stream takes its subset size, protocol and trial from `b`, so
/// the heaviest plans are the same on every seed.
fn random_query(kind: &str, best_k: &mut u64, rng: &mut u64) -> String {
    let mut pick = |n: u64| splitmix(rng) % n;
    let proto = PROTOS[pick(PROTOS.len() as u64) as usize].0;
    let trial = pick(u64::from(TRIALS));
    let head = format!("proto={proto} trial={trial}");
    let origins = u64::from(ORIGINS);
    match kind {
        "coverage" => {
            let mask = 1 + pick((1 << origins) - 1);
            let subset: Vec<String> = (0..ORIGINS)
                .filter(|o| mask >> o & 1 == 1)
                .map(|o| o.to_string())
                .collect();
            format!("coverage {head} origins={}", subset.join(","))
        }
        "diff" => {
            let a = pick(origins);
            let b = (a + 1 + pick(origins - 1)) % origins;
            format!("diff {head} a={a} b={b}")
        }
        "exclusive" => format!("exclusive {head} origin={}", pick(origins)),
        "best-k" => {
            let b = *best_k;
            *best_k += 1;
            let proto = PROTOS[(b / origins % PROTOS.len() as u64) as usize].0;
            let trial = b / (origins * PROTOS.len() as u64) % u64::from(TRIALS);
            format!("best-k proto={proto} trial={trial} k={}", 1 + b % origins)
        }
        _ => format!(
            "{kind} {head} origin={} addr={}",
            pick(origins),
            pick(u64::from(SPACE))
        ),
    }
}

/// `n` queries with distinct canonical forms, drawn from `rng`.
fn distinct_queries(rng: &mut u64, best_k: &mut u64, n: usize) -> Vec<String> {
    let kinds = schedule();
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let q = random_query(kinds[out.len() % kinds.len()], best_k, rng);
        let canonical = Query::parse(&q).map(|p| p.canonical()).unwrap_or_default();
        if seen.insert(canonical) {
            out.push(q);
        }
    }
    out
}

/// The cold stream (`COLD_CHUNKS` chunks of distinct queries) and the
/// warm hot set for `seed`.
fn streams(seed: u64) -> (Vec<String>, Vec<String>) {
    let mut rng = seed ^ 0x51_7EA3;
    let mut best_k = 0;
    let cold = (0..COLD_CHUNKS)
        .flat_map(|_| distinct_queries(&mut rng, &mut best_k, COLD_CHUNK))
        .collect();
    let hot = distinct_queries(&mut rng, &mut 0, HOT_QUERIES);
    (cold, hot)
}

/// A running server over one store file.
struct Rig {
    server: Server,
    engine: Arc<QueryEngine>,
    hub: Arc<Telemetry>,
}

/// Set-up seconds: all of it, and `QueryEngine::open` alone.
struct SetupTimes {
    total_s: f64,
    open_s: f64,
}

fn store_path(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("serve-{seed}.oscs"))
}

/// Synthesize the store for `seed` and write it into `dir`: the body of
/// the helper process that set-up starts.
pub fn write_store(seed: u64, dir: &Path, rep: &mut Report) {
    let written = synth_store(seed).write_to(&store_path(dir, seed));
    rep.check(written.is_ok(), "synthesized store is written");
}

/// Synthesize and write the store in a helper process, so that its
/// memory never counts towards this process's peak, then open it and
/// start the server.
fn setup(seed: u64, dir: &Path) -> std::io::Result<(Rig, SetupTimes)> {
    let t = Instant::now();
    let helper = Command::new(std::env::current_exe()?)
        .args(["serve", "store", "--seed", &seed.to_string(), "--dir"])
        .arg(dir)
        .stdout(Stdio::null())
        .status()?;
    if !helper.success() {
        return Err(std::io::Error::other(format!("store helper: {helper}")));
    }
    let t_open = Instant::now();
    let engine = Arc::new(
        QueryEngine::open(&[&store_path(dir, seed)])
            .map_err(|e| std::io::Error::other(e.to_string()))?,
    );
    let open_s = t_open.elapsed().as_secs_f64();
    let hub = Arc::new(Telemetry::new());
    let server = Server::start(
        Arc::clone(&engine),
        Some(Arc::clone(&hub)),
        ServerConfig::default(),
    )?;
    let times = SetupTimes {
        total_s: t.elapsed().as_secs_f64(),
        open_s,
    };
    Ok((
        Rig {
            server,
            engine,
            hub,
        },
        times,
    ))
}

/// One HTTP exchange as a trace of its own: status, body, connect µs and
/// total µs.
fn http_query(
    addr: SocketAddr,
    query: &str,
    rec: Option<&Spans>,
) -> std::io::Result<(u16, Vec<u8>, f64, f64)> {
    let request = Handle::request(rec, "request");
    let t = Instant::now();
    let mut s = {
        let _c = request.child("client.connect");
        TcpStream::connect(addr)?
    };
    let connect_us = t.elapsed().as_secs_f64() * 1e6;
    let mut raw = Vec::new();
    {
        let _x = request.child("client.exchange");
        s.write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{query}",
                query.len()
            )
            .as_bytes(),
        )?;
        s.read_to_end(&mut raw)?;
    }
    let total_us = t.elapsed().as_secs_f64() * 1e6;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or(raw.len());
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = raw.get(split + 4..).unwrap_or_default().to_vec();
    Ok((status, body, connect_us, total_us))
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    latency_us: Vec<f64>,
    connect_us: Vec<f64>,
    /// Per request: query index, HTTP status and FNV-1a 64 of the body;
    /// `None` when the exchange failed.
    replies: Vec<(usize, Option<(u16, u64)>)>,
}

/// Send `order` (indices into `queries`) through `CLIENTS` closed-loop
/// clients; client `c` sends entries `c, c + CLIENTS, ...`. When traced,
/// the phase is a root span of trace 0 and each request a trace.
fn run_phase(
    addr: SocketAddr,
    queries: &[String],
    order: &[usize],
    rec: Option<&Spans>,
    name: &'static str,
) -> Phase {
    let root = Handle::root(rec, 0, name);
    let t = Instant::now();
    let per_client: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut ph = Phase::default();
                    for &qi in order.iter().skip(c).step_by(CLIENTS) {
                        let reply = http_query(addr, &queries[qi], rec).ok().map(
                            |(status, body, connect_us, total_us)| {
                                ph.latency_us.push(total_us);
                                ph.connect_us.push(connect_us);
                                (status, fnv1a64(&body))
                            },
                        );
                        ph.replies.push((qi, reply));
                    }
                    ph
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    drop(root);
    let mut out = Phase {
        wall_s: t.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for p in per_client {
        out.latency_us.extend(p.latency_us);
        out.connect_us.extend(p.connect_us);
        out.replies.extend(p.replies);
    }
    out
}

impl Phase {
    /// Append `other`, run after this one.
    fn extend(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.latency_us.extend(other.latency_us);
        self.connect_us.extend(other.connect_us);
        self.replies.extend(other.replies);
    }
}

/// Count every reply of `phase` against the expected body hashes: a
/// reply fails unless it is a 200 whose body equals the reference's.
fn check_replies(phase: &Phase, queries: &[String], expected: &[Option<u64>], rep: &mut Report) {
    for (qi, reply) in &phase.replies {
        let ok = matches!((reply, expected[*qi]), (Some((200, got)), Some(want)) if *got == want);
        if ok {
            rep.check(true, "");
        } else {
            rep.check(
                false,
                &format!("served reply differs from execute_text: {}", queries[*qi]),
            );
        }
    }
}

/// Each query's expected body hash from `engine`, and its in-process
/// latency in microseconds.
fn reference(engine: &QueryEngine, queries: &[String]) -> (Vec<Option<u64>>, Vec<f64>) {
    let mut hashes = Vec::with_capacity(queries.len());
    let mut lat = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let body = engine.execute_text(q);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        hashes.push(body.ok().map(|b| fnv1a64(b.as_bytes())));
    }
    (hashes, lat)
}

/// `GET path` over a fresh connection; the response body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return String::new();
    };
    let _ = s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

/// Merge the server's own `/trace` spans into a flame tree.
fn server_profile(body: &str) -> Profile {
    let mut profile = Profile::new();
    let Ok(doc) = JsonValue::parse(body.trim()) else {
        return profile;
    };
    for t in doc.get("traces").and_then(JsonValue::as_arr).unwrap_or(&[]) {
        let mut spans = Vec::new();
        for s in t.get("spans").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let f = |key: &str| s.get(key).and_then(JsonValue::as_f64);
            // Only the request phases are read back; deeper engine spans
            // keep their place in the tree under a shared name.
            let name: &'static str = match s.get("name").and_then(JsonValue::as_str) {
                Some("request") => "request",
                Some("read") => "read",
                Some("execute") => "execute",
                Some("write") => "write",
                _ => "other",
            };
            spans.push(SpanRecord {
                id: f("span").unwrap_or(0.0) as u32,
                parent: f("parent").map(|p| p as u32),
                name,
                start_s: f("start").unwrap_or(0.0),
                end_s: f("end").unwrap_or(0.0),
            });
        }
        profile.add_spans(&spans);
    }
    profile
}

/// One request as the server traced it: its query kind, the seconds of
/// its `request` span, and of that the seconds its `read`, `execute` and
/// `write` spans took.
struct ServerTrace {
    kind: String,
    request_s: f64,
    named_s: f64,
}

/// The request traces of a `/trace` body, oldest first.
fn server_traces(body: &str) -> Vec<ServerTrace> {
    let Ok(doc) = JsonValue::parse(body.trim()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for t in doc.get("traces").and_then(JsonValue::as_arr).unwrap_or(&[]) {
        let spans = t.get("spans").and_then(JsonValue::as_arr).unwrap_or(&[]);
        let f = |s: &JsonValue, key: &str| s.get(key).and_then(JsonValue::as_f64);
        let duration = |s: &JsonValue| f(s, "end").unwrap_or(0.0) - f(s, "start").unwrap_or(0.0);
        let Some(root) = spans
            .iter()
            .find(|s| s.get("parent").and_then(JsonValue::as_f64).is_none())
        else {
            continue;
        };
        let named_s = spans
            .iter()
            .filter(|s| f(s, "parent").is_some() && f(s, "parent") == f(root, "span"))
            .filter(|s| {
                matches!(
                    s.get("name").and_then(JsonValue::as_str),
                    Some("read" | "execute" | "write")
                )
            })
            .map(duration)
            .sum();
        out.push(ServerTrace {
            kind: t
                .get("kind")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            request_s: duration(root),
            named_s,
        });
    }
    out
}

/// Where the time of a set of requests went, in seconds.
#[derive(Default)]
struct Attribution {
    /// The server's `request` spans.
    server_s: f64,
    /// Their `read`, `execute` and `write` children.
    server_named_s: f64,
    /// Client-observed request time.
    client_s: f64,
    /// Client connect plus the server's named spans, per request capped
    /// at its client-observed time.
    client_named_s: f64,
}

impl Attribution {
    fn add(&mut self, o: Attribution) {
        self.server_s += o.server_s;
        self.server_named_s += o.server_named_s;
        self.client_s += o.client_s;
        self.client_named_s += o.client_named_s;
    }
}

/// Send `order` from one closed-loop client, then read the server's own
/// traces of those requests back from `/trace`.
///
/// The server files a trace once it has seen the client close, so two
/// consecutive requests may be filed in either order, and the last one
/// may be filed after the client has moved on. The benchmark waits for
/// the filing and matches each request to the next unmatched trace of
/// its query kind.
fn attribution(
    addr: SocketAddr,
    queries: &[String],
    order: &[usize],
    rec: Option<&Spans>,
    rep: &mut Report,
) -> Attribution {
    let mut client = Vec::with_capacity(order.len());
    for &qi in order {
        match http_query(addr, &queries[qi], rec) {
            Ok((200, _, connect_us, total_us)) => client.push((qi, connect_us, total_us)),
            _ => rep.check(false, &format!("attribution request: {}", queries[qi])),
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let traces = server_traces(&http_get(addr, &format!("/trace?n={}", order.len())));
    let mut by_kind: BTreeMap<&str, VecDeque<&ServerTrace>> = BTreeMap::new();
    for t in &traces {
        by_kind.entry(&t.kind).or_default().push_back(t);
    }
    let mut a = Attribution::default();
    let mut matched = traces.len() == client.len();
    for (qi, connect_us, total_us) in &client {
        let kind = queries[*qi].split(' ').next().unwrap_or_default();
        let (connect_s, total_s) = (connect_us * 1e-6, total_us * 1e-6);
        match by_kind.get_mut(kind).and_then(VecDeque::pop_front) {
            Some(t) => {
                a.server_s += t.request_s;
                a.server_named_s += t.named_s;
                a.client_named_s += (connect_s + t.named_s).min(total_s);
            }
            None => matched = false,
        }
        a.client_s += total_s;
    }
    rep.check(
        matched,
        "the server's traces match the attribution requests one to one",
    );
    a
}

fn mean_self_us(p: &Profile, path: &str) -> f64 {
    p.node(path)
        .map_or(f64::NAN, |n| n.self_s * 1e6 / n.count.max(1) as f64)
}

/// One set-up-and-load session.
struct Session {
    rig: Rig,
    cold: Vec<Phase>,
    warm: Vec<Phase>,
    setup: Vec<SetupTimes>,
    /// Peak RSS once both phases are served, before the reference runs.
    peak_rss_mib: f64,
    /// In-process `execute_text` µs over the cold stream, each chunk on
    /// emptied caches.
    cold_engine_us: Vec<f64>,
    /// In-process `execute_text` µs over the warm replays, memo filled.
    warm_engine_us: Vec<f64>,
    /// FNV-1a 64 over every expected body hash, in stream order.
    digest: u64,
}

/// Set up `SETUP_REPS` times (keeping the last rig), run both phases,
/// then check every reply against an independent engine.
fn session(seed: u64, dir: &Path, rec: Option<&Spans>, rep: &mut Report) -> Option<Session> {
    let mut times = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            old.server.shutdown();
        }
        match setup(seed, dir) {
            Ok((r, t)) => {
                rig = Some(r);
                times.push(t);
            }
            Err(e) => {
                rep.check(false, &format!("serve set-up: {e}"));
                return None;
            }
        }
    }
    let rig = rig?;
    let (cold, hot) = streams(seed);
    let addr = rig.server.local_addr();
    let plans = |rig: &Rig| rig.engine.stats().plans;
    let mut cold_phases = Vec::with_capacity(COLD_PHASES);
    for _ in 0..COLD_PHASES {
        let mut phase = Phase::default();
        for chunk in 0..COLD_CHUNKS {
            rig.engine.clear_caches();
            let before = plans(&rig);
            let order: Vec<usize> = (chunk * COLD_CHUNK..(chunk + 1) * COLD_CHUNK).collect();
            phase.extend(run_phase(addr, &cold, &order, rec, "serve.cold"));
            rep.check(
                plans(&rig).misses - before.misses == COLD_CHUNK as u64,
                "every cold request misses the response memo",
            );
        }
        cold_phases.push(phase);
    }
    let prime: Vec<usize> = (0..hot.len()).collect();
    let primed = run_phase(addr, &hot, &prime, None, "serve.prime");
    let replay: Vec<usize> = (0..WARM_ROUNDS)
        .flat_map(|r| (0..hot.len()).map(move |i| (i + r) % HOT_QUERIES))
        .collect();
    let mut warm_phases = Vec::with_capacity(WARM_PHASES);
    for _ in 0..WARM_PHASES {
        let before = plans(&rig);
        warm_phases.push(run_phase(addr, &hot, &replay, rec, "serve.warm"));
        rep.check(
            plans(&rig).hits - before.hits == replay.len() as u64,
            "every warm request hits the response memo",
        );
    }
    let peak_rss_mib = peak_rss_mib();

    let Ok(engine) = QueryEngine::open(&[&store_path(dir, seed)]) else {
        rep.check(false, "reference engine opens");
        return None;
    };
    let mut cold_expected = Vec::with_capacity(cold.len());
    let mut cold_engine_us = Vec::with_capacity(cold.len());
    for chunk in cold.chunks(COLD_CHUNK) {
        engine.clear_caches();
        let (hashes, lat) = reference(&engine, chunk);
        cold_expected.extend(hashes);
        cold_engine_us.extend(lat);
    }
    let (hot_expected, _) = reference(&engine, &hot);
    let mut warm_engine_us = Vec::with_capacity(replay.len());
    for &qi in &replay {
        let t = Instant::now();
        let _ = engine.execute_text(&hot[qi]);
        warm_engine_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for ph in &cold_phases {
        check_replies(ph, &cold, &cold_expected, rep);
    }
    check_replies(&primed, &hot, &hot_expected, rep);
    for ph in &warm_phases {
        check_replies(ph, &hot, &hot_expected, rep);
    }
    let mut all = Vec::new();
    for h in cold_expected.iter().chain(&hot_expected) {
        all.extend_from_slice(&h.unwrap_or(0).to_le_bytes());
    }
    Some(Session {
        rig,
        cold: cold_phases,
        warm: warm_phases,
        setup: times,
        peak_rss_mib,
        cold_engine_us,
        warm_engine_us,
        digest: fnv1a64(&all),
    })
}

/// The timed session, with every serve figure the untraced process can
/// take from outside the server: its counters and its `/trace` ring.
pub fn main(seed: u64, dir: &Path, rep: &mut Report) {
    let Some(Session {
        rig,
        cold,
        warm,
        setup: times,
        peak_rss_mib,
        cold_engine_us,
        warm_engine_us,
        digest,
    }) = session(seed, dir, None, rep)
    else {
        return;
    };
    let setup: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    rep.metric("setup_s", median(&setup), "s");
    for (phases, [rate, p50, p99, samples, count]) in [
        (
            &cold,
            [
                "cold_req_per_s",
                "cold_p50_us",
                "cold_p99_us",
                "cold_samples",
                "cold_phases",
            ],
        ),
        (
            &warm,
            [
                "warm_req_per_s",
                "warm_p50_us",
                "warm_p99_us",
                "warm_samples",
                "warm_phases",
            ],
        ),
    ] {
        rep.metric(count, phases.len() as f64, "count");
        let each = |f: &dyn Fn(&Phase) -> f64| phases.iter().map(f).collect::<Vec<_>>();
        let rates = each(&|ph| ph.latency_us.len() as f64 / ph.wall_s);
        rep.metric(rate, median(&rates), "1/s");
        let p50s = each(&|ph| percentile(&ph.latency_us, 0.5));
        rep.metric(p50, median(&p50s), "us");
        // A busy host shows first in the tail: of the phases one process
        // serves, the least disturbed one's p99 stands for the program.
        let p99s = each(&|ph| percentile(&ph.latency_us, 0.99));
        rep.metric(
            p99,
            p99s.iter().copied().fold(f64::INFINITY, f64::min),
            "us",
        );
        rep.metric(
            samples,
            median(&each(&|ph| ph.latency_us.len() as f64)),
            "count",
        );
    }
    let wall_s: f64 = cold.iter().chain(&warm).map(|ph| ph.wall_s).sum();
    rep.metric("wall_s", wall_s, "s");
    rep.metric("peak_rss_mib", peak_rss_mib, "MiB");

    let pooled = |phases: &[Phase], f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        phases.iter().flat_map(|ph| f(ph).iter().copied()).collect()
    };
    let engine_cold = median(&cold_engine_us);
    let engine_warm = median(&warm_engine_us);
    rep.metric("serve.engine_cold_us", engine_cold, "us");
    rep.metric("serve.engine_warm_us", engine_warm, "us");
    rep.metric(
        "serve.http_cold_overhead_us",
        median(&pooled(&cold, |ph| &ph.latency_us)) - engine_cold,
        "us",
    );
    rep.metric(
        "serve.http_warm_overhead_us",
        median(&pooled(&warm, |ph| &ph.latency_us)) - engine_warm,
        "us",
    );
    let mut connect = pooled(&cold, |ph| &ph.connect_us);
    connect.extend(pooled(&warm, |ph| &ph.connect_us));
    rep.metric("serve.connect_us", median(&connect), "us");
    rep.metric(
        "store.open_s",
        median(&times.iter().map(|t| t.open_s).collect::<Vec<_>>()),
        "s",
    );

    let s = rig.engine.stats();
    let plan_lookups = s.plans.hits + s.plans.misses;
    let set_lookups = s.sets.hits + s.sets.misses;
    rep.metric(
        "serve.plan_hit_ratio",
        s.plans.hits as f64 / plan_lookups.max(1) as f64,
        "ratio",
    );
    rep.metric("serve.plan_lookups", plan_lookups as f64, "count");
    rep.metric(
        "serve.set_hit_ratio",
        s.sets.hits as f64 / set_lookups.max(1) as f64,
        "ratio",
    );
    rep.metric("serve.set_lookups", set_lookups as f64, "count");
    rep.metric("serve.kernel_ops", s.kernel_ops as f64, "count");
    rep.metric("serve.kernel_words", s.kernel_words as f64, "count");

    // The ring holds the most recent requests: all warm replays.
    let addr = rig.server.local_addr();
    let profile = server_profile(&http_get(addr, "/trace?n=256"));
    rep.metric(
        "serve.span.read_self_us",
        mean_self_us(&profile, "request/read"),
        "us",
    );
    rep.metric(
        "serve.span.execute_self_us",
        mean_self_us(&profile, "request/execute"),
        "us",
    );
    rep.metric(
        "serve.span.write_self_us",
        mean_self_us(&profile, "request/write"),
        "us",
    );
    rig.server.shutdown();
    let snap = rig.hub.snapshot();
    rep.metric(
        "serve.rejected",
        snap.counter(Scope::new("serve", 0, 0), names::SERVE_HTTP_REJECTED) as f64,
        "count",
    );
    rep.metric("telemetry.events", snap.events.len() as f64, "count");
    let store_bytes = std::fs::metadata(store_path(dir, seed)).map_or(0, |m| m.len());
    rep.check(store_bytes > 0, "the served store file has bytes");
    rep.metric("store.bytes", store_bytes as f64, "bytes");
    rep.digest(hex(digest));
}

/// The session under spans; then attribution passes of one client, warm
/// (hot set, memo filled) and cold (the first cold chunk on emptied
/// caches). The span coverage is the lower share, warm or cold, of the
/// server's request time in its `read`, `execute` and `write` spans;
/// also reported is the share of client-observed time that the client's
/// connect and those spans account for; then the benchmark's own timed calls into the store
/// layer: `StoreReader::load` of every key and
/// `LazyScanSet::contains`/`rank` lookups.
pub fn traced(seed: u64, dir: &Path, spans_path: &Path, rep: &mut Report) {
    let rec = Spans::default();
    let Some(ses) = session(seed, dir, Some(&rec), rep) else {
        return;
    };
    rep.digest(hex(ses.digest));
    let (cold, hot) = streams(seed);
    let addr = ses.rig.server.local_addr();
    let n = TRACE_RING_CAPACITY.min(COLD_CHUNK);
    let warm_order: Vec<usize> = (0..n).map(|i| i % hot.len()).collect();
    let mut warm_a = Attribution::default();
    for _ in 0..WARM_ATTRIBUTION_PASSES {
        warm_a.add(attribution(addr, &hot, &warm_order, Some(&rec), rep));
    }
    ses.rig.engine.clear_caches();
    let cold_order: Vec<usize> = (0..n).collect();
    let cold_a = attribution(addr, &cold, &cold_order, Some(&rec), rep);
    ses.rig.server.shutdown();
    let m = match rec.finish(spans_path) {
        Ok(m) => m,
        Err(e) => {
            rep.check(false, &format!("write spans: {e}"));
            return;
        }
    };
    rep.metric("traced_wall_s", m.wall_s, "s");
    let share = |named: f64, all: f64| if all > 0.0 { named / all } else { 0.0 };
    let server = [
        share(warm_a.server_named_s, warm_a.server_s),
        share(cold_a.server_named_s, cold_a.server_s),
    ];
    let client = [
        share(warm_a.client_named_s, warm_a.client_s),
        share(cold_a.client_named_s, cold_a.client_s),
    ];
    eprintln!(
        "perfbench: serve: named spans hold {:.1}% of warm and {:.1}% of cold server request time, \
         and with client connect {:.1}% and {:.1}% of client-observed time",
        server[0] * 100.0,
        server[1] * 100.0,
        client[0] * 100.0,
        client[1] * 100.0
    );
    rep.metric("trace.span_coverage", server[0].min(server[1]), "ratio");
    rep.metric("serve.warm_client_share", client[0], "ratio");
    rep.metric("serve.cold_client_share", client[1], "ratio");

    let Ok(reader) = StoreReader::open(&store_path(dir, seed)) else {
        rep.check(false, "store reader opens");
        return;
    };
    let keys: Vec<StoreKey> = reader.keys().cloned().collect();
    let mut load_us = Vec::new();
    for k in &keys {
        let t = Instant::now();
        let ok = reader.load(k).is_ok();
        load_us.push(t.elapsed().as_secs_f64() * 1e6);
        rep.check(ok, "StoreReader::load");
    }
    rep.metric("store.load_us", median(&load_us), "us");
    let mut rng = seed ^ 0x1A2;
    let mut lookup_us = Vec::new();
    for i in 0..2000usize {
        let ki = (splitmix(&mut rng) % keys.len() as u64) as usize;
        let addr = (splitmix(&mut rng) % u64::from(SPACE)) as u32;
        let t = Instant::now();
        let ok = match reader.lazy(&keys[ki]) {
            Ok(lazy) if i % 2 == 0 => lazy.contains(addr).is_ok(),
            Ok(lazy) => lazy.rank(addr).is_ok(),
            Err(_) => false,
        };
        lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !ok {
            rep.check(false, "LazyScanSet lookup");
        }
    }
    rep.metric("store.lazy_lookup_us", median(&lookup_us), "us");
}
