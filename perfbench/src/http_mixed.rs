//! `http_mixed`: HTTP requests to their responses. An open loop at the
//! fixed offered rate [`RATE`] over [`CONNECTIONS`] keep-alive connection
//! to an in-process `Server` with [`WORKERS`] workers. Nine requests in ten
//! are reads (the Table 6 statements over `/query` and `/execute`, with
//! an index registered so anchored Staccato keywords become index
//! probes); one in ten is a single-document `POST /ingest` into a WAL.
//!
//! Requests follow a fixed schedule; each request's latency runs from
//! its due time, so a stall also charges the requests queued behind it.

use crate::check::{check_answer, Answer, Failure, Tally};
use crate::summary::{describe, geometric_mean, median, percentile, ratio, Env};
use crate::trace::Tracer;
use crate::workload::{
    corpus, dir_bytes, file_bytes, ingest_docs, load_options, register_index,
    report_statement_layers, secs, side_build_layers, side_read_layers, statements, Config, Grid,
    Obs, Outcome, StmtSamples, APPROACHES,
};
use staccato_query::Staccato;
use staccato_server::{HttpClient, Json, Server, ServerConfig, ServerHandle};
use staccato_storage::{Database, PoolStats, SyncPolicy, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const LINES: usize = 400;
/// Holds the store and everything the run ingests.
pub const POOL_FRAMES: usize = 4096;
pub const WORKERS: usize = 2;
/// Keep-alive connections, at most `nproc`. One: with two on a
/// shared 2-vCPU host, the read p50 moved with how the host scheduled
/// the two in-flight requests, by up to 0.3 of its median between runs.
pub const CONNECTIONS: usize = 1;
/// Offered requests per second: about a quarter of what the seed serves
/// over one connection (~230 req/s on a 2-vCPU box), so a slow FullSFA
/// read seldom runs past the next request's due time.
pub const RATE: f64 = 60.0;
/// The latency limit on `op_p99_ms` (read p99 from the due time).
pub const READ_P99_LIMIT_MS: f64 = 50.0;
/// Every `WRITE_EVERY`-th request is a write.
const WRITE_EVERY: u64 = 10;
/// Fresh set-ups per run, each measured for a third of the run, so
/// the store stays near its initial size.
const SEGMENTS: usize = 3;
/// Grid rounds after each segment. They check answers and give recall
/// and precision; `t4_ms.*` comes from the reads, which span the run.
const GRID_ROUNDS: usize = 2;
const SIDE_DOCS: usize = 100;

/// A scheduled request.
#[derive(Clone, Copy)]
enum Kind {
    /// Statement index, sent to `/execute` when `prepared`.
    Read { stmt: usize, prepared: bool },
    /// Index into the documents to ingest.
    Write { doc: usize },
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    tally: Tally,
    read_ms: Vec<f64>,
    /// The same reads, split by representation.
    read_ms_by: [Vec<f64>; 4],
    /// `(statement, in-server execution ms)` of each answered read.
    stmt_ms: Vec<(usize, f64)>,
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    non_2xx: u64,
    samples: [StmtSamples; 4],
}

impl ConnResult {
    fn merge(&mut self, r: ConnResult) {
        self.tally.merge(r.tally);
        self.read_ms.extend(r.read_ms);
        for (acc, v) in self.read_ms_by.iter_mut().zip(r.read_ms_by) {
            acc.extend(v);
        }
        self.stmt_ms.extend(r.stmt_ms);
        self.ack_ms.extend(r.ack_ms);
        self.late_ms.extend(r.late_ms);
        self.overhead_ms.extend(r.overhead_ms);
        self.non_2xx += r.non_2xx;
        for (a, s) in r.samples.into_iter().enumerate() {
            self.samples[a].merge(s);
        }
    }
}

/// Session and server counters over one segment.
#[derive(Default)]
struct Counters {
    elapsed_s: f64,
    pool: PoolStats,
    cache_hits: u64,
    cache_lookups: u64,
    batches: u64,
    group_commits: u64,
    wal_bytes: u64,
    docs: u64,
    /// `(endpoint, p50_us, p99_us)` from `GET /stats`.
    handlers: Vec<(&'static str, f64, f64)>,
}

struct Fixture {
    session: Arc<Staccato>,
    server: ServerHandle,
    clients: Vec<HttpClient>,
}

/// The deterministic request mix of one run: SplitMix64 over the seed.
fn schedule(seed: u64, n: usize, statements: usize) -> Vec<Kind> {
    let mut state = seed ^ 0x4854_5450_6d69_7864;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n as u64)
        .map(|i| {
            let r = next();
            if i % WRITE_EVERY == WRITE_EVERY - 1 {
                Kind::Write {
                    doc: (i / WRITE_EVERY) as usize,
                }
            } else {
                Kind::Read {
                    stmt: (r % statements as u64) as usize,
                    prepared: r >> 63 == 1,
                }
            }
        })
        .collect()
}

fn setup(cfg: &Config, db_path: &std::path::Path, wal_dir: &std::path::Path) -> Fixture {
    let _ = std::fs::remove_file(db_path);
    let _ = std::fs::remove_dir_all(wal_dir);
    let dataset = corpus(LINES, cfg.seed);
    let db = Database::create(db_path, POOL_FRAMES).expect("creating the store file");
    let session = Arc::new(
        Staccato::load(db, &dataset, &load_options(cfg.seed)).expect("loading the corpus"),
    );
    session.checkpoint().expect("checkpoint after load");
    session
        .attach_wal(wal_dir, SyncPolicy::Commit)
        .expect("attaching the WAL");
    register_index(&session, &dataset);
    let server = Server::start(
        Arc::clone(&session),
        ServerConfig {
            workers: WORKERS,
            rate_limit: None,
            ..ServerConfig::default()
        },
    )
    .expect("starting the server");
    let clients = (0..CONNECTIONS)
        .map(|c| {
            let mut client = HttpClient::connect_as(server.addr(), &format!("perfbench-{c}"))
                .expect("connecting");
            for (approach, _) in APPROACHES {
                let sql = format!(
                    "SELECT DataKey, Prob FROM {} WHERE Data REGEXP ?",
                    staccato_query::SqlTable::of_approach(approach).name()
                );
                let body = Json::Obj(vec![("sql".into(), Json::Str(sql))]).render();
                let resp = client.post("/prepare", &body).expect("prepare request");
                assert_eq!(resp.status, 200, "prepare failed: {}", resp.body);
            }
            client
        })
        .collect();
    Fixture {
        session,
        server,
        clients,
    }
}

fn rows_of(body: &Json) -> Option<Vec<(i64, f64)>> {
    body.get("rows")?
        .as_array()?
        .iter()
        .map(|r| Some((r.get("key")?.as_f64()? as i64, r.get("prob")?.as_f64()?)))
        .collect()
}

/// One measured segment: the open loop over `fixture` for `seconds`,
/// then the server's own view from `GET /stats`, then shutdown.
fn segment(
    fixture: Fixture,
    seed: u64,
    seconds: f64,
    docs: &[(String, String)],
    tracer: &Tracer,
    request_base: u64,
) -> (Arc<Staccato>, ConnResult, Counters) {
    let Fixture {
        session,
        server,
        clients,
    } = fixture;
    let stmts = statements();
    let n = ((seconds * RATE) as usize).max(1);
    let plan = schedule(seed, n, stmts.len());
    let base = LINES as u64;
    let sent_writes = AtomicU64::new(0);
    let acked_writes = AtomicU64::new(0);
    let connections = clients.len();
    let pool_before = session.pool_stats();
    let cache_before = session.query_cache_stats();
    let ingest_before = session.ingest_stats();
    let start = Instant::now() + Duration::from_millis(50);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (plan, stmts, docs) = (&plan, &stmts, &docs);
                let (sent_writes, acked_writes) = (&sent_writes, &acked_writes);
                scope.spawn(move || {
                    let mut r = ConnResult::default();
                    for i in (c..plan.len()).step_by(connections) {
                        let due = start + Duration::from_secs_f64(i as f64 / RATE);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        r.late_ms.push((sent - due).as_secs_f64() * 1e3);
                        match plan[i] {
                            Kind::Write { doc } => {
                                let (name, text) = &docs[doc];
                                let body = Json::Obj(vec![(
                                    "documents".into(),
                                    Json::Arr(vec![Json::Obj(vec![
                                        ("name".into(), Json::Str(name.clone())),
                                        ("text".into(), Json::Str(text.clone())),
                                    ])]),
                                )])
                                .render();
                                sent_writes.fetch_add(1, Ordering::SeqCst);
                                let (resp, _) = tracer.time(
                                    "server.ingest",
                                    0,
                                    request_base + i as u64,
                                    || client.post("/ingest", &body),
                                );
                                let ok = matches!(&resp, Ok(x) if (200..300).contains(&x.status));
                                if ok {
                                    acked_writes.fetch_add(1, Ordering::SeqCst);
                                    r.ack_ms.push(due.elapsed().as_secs_f64() * 1e3);
                                    r.tally.record("ingest", false, &[]);
                                } else {
                                    r.non_2xx += u64::from(resp.is_ok());
                                    r.tally.record("ingest", false, &[Failure::Error]);
                                }
                            }
                            Kind::Read { stmt, prepared } => {
                                let s = &stmts[stmt];
                                let lo = base + acked_writes.load(Ordering::SeqCst);
                                let (path, body) = if prepared {
                                    (
                                        "/execute",
                                        Json::Obj(vec![
                                            ("statement_id".into(), Json::Num(s.approach as f64)),
                                            (
                                                "params".into(),
                                                Json::Arr(vec![Json::Str(s.pattern.into())]),
                                            ),
                                        ])
                                        .render(),
                                    )
                                } else {
                                    (
                                        "/query",
                                        Json::Obj(vec![("sql".into(), Json::Str(s.sql.clone()))])
                                            .render(),
                                    )
                                };
                                let name = if prepared {
                                    "server.execute"
                                } else {
                                    "server.query"
                                };
                                let (resp, service) =
                                    tracer.time(name, 0, request_base + i as u64, || {
                                        client.post(path, &body)
                                    });
                                let latency = due.elapsed();
                                let hi = base + sent_writes.load(Ordering::SeqCst);
                                let resp = match resp {
                                    Ok(x) if (200..300).contains(&x.status) => x,
                                    other => {
                                        // A failed request misses every
                                        // latency limit.
                                        r.non_2xx += u64::from(other.is_ok());
                                        r.read_ms.push(f64::MAX);
                                        r.read_ms_by[s.approach].push(f64::MAX);
                                        r.tally.record(&s.label, s.kmap(), &[Failure::Error]);
                                        continue;
                                    }
                                };
                                r.read_ms.push(latency.as_secs_f64() * 1e3);
                                r.read_ms_by[s.approach].push(latency.as_secs_f64() * 1e3);
                                let parsed = resp.json().ok();
                                let rows = parsed.as_ref().and_then(rows_of);
                                let (Some(json), Some(rows)) = (parsed.as_ref(), rows) else {
                                    r.tally.record(&s.label, s.kmap(), &[Failure::Error]);
                                    continue;
                                };
                                let stat = |k: &str| {
                                    json.get("stats")
                                        .and_then(|x| x.get(k))
                                        .and_then(Json::as_f64)
                                        .unwrap_or(0.0)
                                };
                                let probe =
                                    json.get("plan").and_then(Json::as_str) == Some("IndexProbe");
                                let evaluated = stat("lines_evaluated") as u64;
                                let failures = check_answer(&Answer {
                                    rows: &rows,
                                    filescan_lines: (!probe).then_some(evaluated),
                                    line_count: (lo, hi),
                                });
                                r.tally.record(&s.label, s.kmap(), &failures);
                                let (plan_us, exec_us) = (stat("plan_us"), stat("exec_us"));
                                r.stmt_ms.push((stmt, exec_us / 1e3));
                                r.overhead_ms
                                    .push(service.as_secs_f64() * 1e3 - (plan_us + exec_us) / 1e3);
                                r.samples[s.approach].add(Obs {
                                    call_ms: (plan_us + exec_us) / 1e3,
                                    exec_ms: exec_us / 1e3,
                                    plan_us,
                                    overhead_us: None,
                                    probe,
                                    lines_evaluated: evaluated,
                                    line_count: lo,
                                    prescreened: 0,
                                    postings: stat("postings_probed") as u64,
                                });
                            }
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let elapsed_s = secs(start);
    let mut all = ConnResult::default();
    for r in results {
        all.merge(r);
    }
    let mut stats_client = HttpClient::connect(server.addr()).expect("connecting for /stats");
    let server_stats = stats_client.get("/stats").ok().and_then(|r| r.json().ok());
    drop(stats_client);
    server.shutdown();
    let handlers = ["query", "execute", "ingest"]
        .into_iter()
        .map(|endpoint| {
            let e = server_stats
                .as_ref()
                .and_then(|s| s.get("server"))
                .and_then(|s| s.get("endpoints"))
                .and_then(|s| s.get(endpoint));
            let field = |k: &str| {
                e.and_then(|x| x.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            (endpoint, field("p50_us"), field("p99_us"))
        })
        .collect();
    let cache = session.query_cache_stats();
    let ingest = session.ingest_stats();
    let counters = Counters {
        elapsed_s,
        pool: session.pool_stats().delta_since(pool_before),
        cache_hits: cache.hits - cache_before.hits,
        cache_lookups: cache.hits + cache.misses - cache_before.hits - cache_before.misses,
        batches: ingest.batches - ingest_before.batches,
        group_commits: ingest.wal_group_commits - ingest_before.wal_group_commits,
        wal_bytes: ingest.wal_bytes_logged - ingest_before.wal_bytes_logged,
        docs: ingest.docs - ingest_before.docs,
        handlers,
    };
    (session, all, counters)
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let db_path = cfg.work.join("http.db");
    let wal_dir = cfg.work.join("wal");
    let seconds = cfg.seconds / SEGMENTS as f64;
    let docs = ingest_docs(
        cfg.seed,
        (seconds * RATE) as usize / WRITE_EVERY as usize + 1,
    );
    let mut setup_s = Vec::new();
    let mut all = ConnResult::default();
    let mut counters = Vec::new();
    let mut bytes_per_text = Vec::new();
    let mut sql_overhead_us = Vec::new();
    let mut last = None;
    for seg in 0..SEGMENTS {
        drop(last.take());
        let t = Instant::now();
        let fixture = setup(cfg, &db_path, &wal_dir);
        setup_s.push(secs(t));
        let request_base = (seg * 1_000_000) as u64 + 1;
        let (session, r, c) = segment(fixture, cfg.seed, seconds, &docs, tracer, request_base);
        all.merge(r);
        counters.push(c);

        session.checkpoint().expect("checkpoint after the segment");
        bytes_per_text.push(
            (file_bytes(&db_path) + dir_bytes(&wal_dir)) as f64 / session.sizes().text as f64,
        );
        let mut grid = Grid::new(&session);
        grid.warm(&session, tracer, &mut out.tally);
        for round in 0..GRID_ROUNDS {
            for a in 0..APPROACHES.len() {
                grid.pass(&session, a, tracer, &mut out.tally, (round * 4 + a) as u64);
            }
        }
        // Parse-and-lower overhead is only visible in-process.
        sql_overhead_us.extend(
            grid.samples
                .iter()
                .flat_map(|x| x.overhead_us.iter().copied()),
        );
        last = Some((session, grid));
    }
    let (session, grid) = last.expect("at least one segment");
    out.set("setup_s", median(&setup_s));
    out.tally.merge(std::mem::take(&mut all.tally));
    let completed = all.read_ms.len() + all.ack_ms.len();
    let elapsed: f64 = counters.iter().map(|c| c.elapsed_s).sum();
    out.set("ops_per_s", completed as f64 / elapsed);
    // The read mix puts a quarter of the reads in each representation,
    // so the pooled median sits where k-MAP's and Staccato's latencies
    // meet and jumps between them. The geometric mean of the four
    // representations' medians moves only as the reads do.
    let read_p50_by: Vec<f64> = all.read_ms_by.iter().map(|v| median(v)).collect();
    out.set("op_p50_ms", geometric_mean(&read_p50_by));
    let p99 = percentile(&all.read_ms, 0.99);
    out.set("bench.op_p99_ms", p99.value);
    out.notes.push(format!(
        "http_mixed: offered {RATE}/s for {SEGMENTS} x {seconds:.1} s over {} connection(s); send lateness {}; reads {}, p50 by representation {} ms (limit p99 {READ_P99_LIMIT_MS} ms: {}); POST /ingest acks {}",
        CONNECTIONS,
        describe(&all.late_ms, "ms"),
        describe(&all.read_ms, "ms"),
        APPROACHES
            .iter()
            .zip(&read_p50_by)
            .map(|((_, key), p50)| format!("{key} {p50:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        if p99.value <= READ_P99_LIMIT_MS { "met" } else { "missed" },
        describe(&all.ack_ms, "ms"),
    ));
    let pool_total = counters.iter().fold(PoolStats::default(), |mut acc, c| {
        acc.hits += c.pool.hits;
        acc.misses += c.pool.misses;
        acc.writebacks += c.pool.writebacks;
        acc
    });

    out.set("bytes_per_text_byte", median(&bytes_per_text));
    // One pass of the 7 statements on a table, from the reads: the sum
    // of each statement's median execution time. Plan time is left out
    // because every write empties the compiled-query cache, so most
    // reads compile their pattern (that cost shows in `op_p50_ms`,
    // `automata.compile_us` and `query.plan_us`). The host runs
    // fast and slow for seconds at a time (up to 1.6x apart), so grid
    // passes bunched after each segment landed in one spell or the
    // other; the reads span the whole run.
    let stmts = statements();
    let mut by_stmt = vec![Vec::new(); stmts.len()];
    for &(i, ms) in &all.stmt_ms {
        by_stmt[i].push(ms);
    }
    for (a, (_, key)) in APPROACHES.iter().enumerate() {
        let pass: f64 = stmts
            .iter()
            .zip(&by_stmt)
            .filter(|(s, _)| s.approach == a)
            .map(|(_, v)| median(v))
            .sum();
        out.set(format!("t4_ms.{key}"), pass);
    }
    let (precision, recall) = grid.staccato_quality();
    out.set("precision.staccato", precision);
    out.set("recall.staccato", recall);

    if tracer.enabled() {
        report_statement_layers(&all.samples, &mut out);
        out.set("query.sql_overhead_us", median(&sql_overhead_us));
        let sum = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
        let (hits, misses, writebacks) = (
            pool_total.hits as f64,
            pool_total.misses as f64,
            pool_total.writebacks as f64,
        );
        let reads = all.read_ms.len() as f64;
        out.set("storage.pool_hit_rate", ratio(hits, hits + misses));
        out.set("storage.pool_misses_per_stmt", ratio(misses, reads));
        out.set("storage.read_writebacks", ratio(writebacks, reads));
        out.set(
            "query.cache_hit_rate",
            ratio(sum(|c| c.cache_hits), sum(|c| c.cache_lookups)),
        );
        out.set(
            "storage.wal_batches_per_fsync",
            ratio(sum(|c| c.batches), sum(|c| c.group_commits)),
        );
        out.set(
            "storage.wal_bytes_per_doc",
            ratio(sum(|c| c.wal_bytes), sum(|c| c.docs)),
        );
        for (i, endpoint) in ["query", "execute", "ingest"].into_iter().enumerate() {
            let p50: Vec<f64> = counters.iter().map(|c| c.handlers[i].1).collect();
            let p99: Vec<f64> = counters.iter().map(|c| c.handlers[i].2).collect();
            out.set(format!("server.handler_p50_us.{endpoint}"), median(&p50));
            out.set(format!("server.handler_p99_us.{endpoint}"), median(&p99));
        }
        out.set("server.ingest_ack_p50_ms", median(&all.ack_ms));
        out.set(
            "server.ingest_ack_p99_ms",
            percentile(&all.ack_ms, 0.99).value,
        );
        out.set("server.overhead_p50_ms", median(&all.overhead_ms));
        out.set("server.non_2xx", all.non_2xx as f64);
        out.set(
            "bench.gen_late_p99_ms",
            percentile(&all.late_ms, 0.99).value,
        );
        let texts: Vec<String> = docs
            .iter()
            .take(SIDE_DOCS)
            .map(|(_, t)| t.clone())
            .collect();
        side_build_layers(
            &load_options(cfg.seed),
            &texts,
            LINES as u64,
            tracer,
            &mut out,
        );
        side_read_layers(&session, &all.samples, tracer, &mut out);
    }
    out.env = Env {
        workload: "http_mixed".into(),
        seed: cfg.seed,
        pool_frames: POOL_FRAMES,
        store_pages: file_bytes(&db_path) / PAGE_SIZE as u64,
        lines: session.line_count(),
        offered_rate: RATE,
        sync_policy: "Commit, one document per POST /ingest".into(),
        checkpoint_policy: "one checkpoint after load, one after each segment".into(),
    };
    out
}
