//! `ingest_durable`: documents to their durable ack. Two writers in a
//! closed loop send two-document batches through a prepared
//! `INSERT INTO StaccatoData` (the session's ingest path) under
//! `SyncPolicy::Commit`, into a file-backed store with a WAL, a
//! registered inverted index and background checkpoints every
//! [`CKPT_EVERY`] batches.
//!
//! The run is a sequence of whole cycles. Each cycle loads a fresh
//! [`BASE_LINES`]-line store, grows it [`GROWTH`]-fold by ingest, drops
//! the session without a checkpoint, recovers with `recover_with`,
//! verifies that every acknowledged document came back, and runs the
//! Table 4 grid over the recovered store.

use crate::check::{check_recovery, Failure, Tally};
use crate::summary::{describe, mean, median, percentile, ratio, Env};
use crate::trace::Tracer;
use crate::workload::{
    corpus, dir_bytes, file_bytes, ingest_docs, load_options, register_index,
    report_statement_layers, secs, side_build_layers, side_read_layers, Config, Grid, Outcome,
    StmtSamples, APPROACHES,
};
use staccato_query::{CheckpointPolicy, RecoverOptions, SqlValue, Staccato};
use staccato_storage::{Database, PoolStats, SyncPolicy, PAGE_SIZE};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const BASE_LINES: usize = 100;
pub const GROWTH: usize = 10;
pub const WRITERS: usize = 2;
pub const DOCS_PER_BATCH: usize = 2;
pub const CKPT_EVERY: u64 = 50;
/// Holds the grown store: DESIGN.md's no-steal rule asks for a pool in
/// which no dirty page is evicted between checkpoints.
pub const POOL_FRAMES: usize = 8192;
/// Grid rounds over each recovered store.
const GRID_ROUNDS: usize = 4;
/// Documents per cycle whose build is re-run in the traced side calls.
const SIDE_DOCS: usize = 100;

const INSERT: &str = "INSERT INTO StaccatoData (DocName, Data) VALUES (?, ?), (?, ?)";

/// What one writer measured for one batch.
struct Ack {
    latency: Duration,
    flush_wait: Duration,
    first_key: i64,
    batch: usize,
}

#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    ack_ms: Vec<f64>,
    flush_wait_ms: Vec<f64>,
    self_ms: Vec<f64>,
    ingest_s: f64,
    docs: u64,
    batches: u64,
    group_commits: u64,
    wal_bytes: u64,
    checkpoints: u64,
    segments_deleted: u64,
    fetches: u64,
    growth: Vec<f64>,
    bytes_per_text: Vec<f64>,
    pages: u64,
    lines: usize,
    t4: [Vec<f64>; 4],
    precision: Vec<f64>,
    recall: Vec<f64>,
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let opts = load_options(cfg.seed);
    let docs = ingest_docs(cfg.seed, BASE_LINES * GROWTH);
    let batches = docs.len() / DOCS_PER_BATCH;
    let mut totals = Totals::default();
    let mut last: Option<Staccato> = None;
    let mut cycle = 0usize;
    let mut scans: [StmtSamples; 4] = Default::default();
    while cycle == 0 || totals.ingest_s < cfg.seconds {
        let dir = cfg.work.join(format!("cycle{cycle}"));
        std::fs::create_dir_all(&dir).expect("cycle directory");
        let db_path = dir.join("store.db");
        let wal_dir = dir.join("wal");

        // Set-up: load, checkpoint, attach the WAL, register the index,
        // start the background checkpointer.
        let t = Instant::now();
        let dataset = corpus(BASE_LINES, cfg.seed);
        let db = Database::create(&db_path, POOL_FRAMES).expect("creating the store file");
        let session = Arc::new(Staccato::load(db, &dataset, &opts).expect("loading the corpus"));
        session.checkpoint().expect("checkpoint after load");
        session
            .attach_wal(&wal_dir, SyncPolicy::Commit)
            .expect("attaching the WAL");
        register_index(&session, &dataset);
        Staccato::start_background_checkpoints(
            &session,
            CheckpointPolicy::every_batches(CKPT_EVERY),
        )
        .expect("starting the checkpointer");
        totals.setup_s.push(secs(t));

        // Ingest: the writers share one batch counter, closed loop.
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let quarters: Mutex<Vec<(usize, PoolStats)>> = Mutex::new(vec![(0, session.pool_stats())]);
        let t = Instant::now();
        let per_writer: Vec<(Vec<Ack>, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|_| {
                    scope.spawn(|| {
                        let insert = session.prepare(INSERT).expect("INSERT prepares");
                        let mut acks = Vec::new();
                        let mut tally = Tally::default();
                        loop {
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            if b >= batches {
                                break;
                            }
                            let params: Vec<SqlValue> = docs
                                [b * DOCS_PER_BATCH..(b + 1) * DOCS_PER_BATCH]
                                .iter()
                                .flat_map(|(name, text)| {
                                    [SqlValue::text(name.clone()), SqlValue::text(text.clone())]
                                })
                                .collect();
                            let request = (cycle * batches + b) as u64 + 1;
                            let (result, latency) = tracer.time("query.ingest", 0, request, || {
                                session.execute_prepared(&insert, &params)
                            });
                            match result.ok().and_then(|o| o.ingest.map(|r| (r, o.stats))) {
                                Some((receipt, stats)) => {
                                    tally.record("ingest", false, &[]);
                                    acks.push(Ack {
                                        latency,
                                        flush_wait: stats.wal.flush_wait,
                                        first_key: receipt.first_key,
                                        batch: b,
                                    });
                                }
                                None => tally.record("ingest", false, &[Failure::Error]),
                            }
                            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                            if finished.is_multiple_of((batches / 4).max(1)) {
                                quarters
                                    .lock()
                                    .expect("quarter samples poisoned")
                                    .push((finished, session.pool_stats()));
                            }
                        }
                        (acks, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread"))
                .collect()
        });
        totals.ingest_s += secs(t);
        let stats = session.ingest_stats();

        let mut acknowledged: BTreeMap<i64, String> = BTreeMap::new();
        for (acks, tally) in per_writer {
            out.tally.merge(tally);
            for ack in acks {
                for (i, (_, text)) in docs
                    [ack.batch * DOCS_PER_BATCH..(ack.batch + 1) * DOCS_PER_BATCH]
                    .iter()
                    .enumerate()
                {
                    acknowledged.insert(ack.first_key + i as i64, text.clone());
                }
                let flush = ack.flush_wait.as_secs_f64() * 1e3;
                let total = ack.latency.as_secs_f64() * 1e3;
                totals.ack_ms.push(total);
                totals.flush_wait_ms.push(flush);
                totals.self_ms.push(total - flush);
            }
        }
        totals.docs += acknowledged.len() as u64;
        totals.batches += stats.batches;
        totals.group_commits += stats.wal_group_commits;
        totals.wal_bytes += stats.wal_bytes_logged;
        totals.checkpoints += stats.checkpoints;
        totals.segments_deleted += stats.wal_segments_deleted;
        let mut q = quarters.into_inner().expect("quarter samples poisoned");
        q.sort_by_key(|(n, _)| *n);
        let fetched = |a: &PoolStats, b: &PoolStats| {
            (b.hits + b.misses).saturating_sub(a.hits + a.misses) as f64
        };
        if let (Some(first), Some(last_q)) = (q.first(), q.last()) {
            totals.fetches += fetched(&first.1, &last_q.1) as u64;
        }
        if q.len() >= 5 {
            let quarter = |i: usize| fetched(&q[i].1, &q[i + 1].1) / (q[i + 1].0 - q[i].0) as f64;
            totals.growth.push(ratio(quarter(q.len() - 2), quarter(0)));
        }

        // Crash: drop without a checkpoint, once no background
        // checkpoint holds the session any more.
        let mut session = session;
        loop {
            match Arc::try_unwrap(session) {
                Ok(s) => {
                    drop(s);
                    break;
                }
                Err(s) => {
                    session = s;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let t = Instant::now();
        let recovered = Staccato::recover_with(
            &db_path,
            &wal_dir,
            &RecoverOptions {
                pool_frames: POOL_FRAMES,
                load: opts.clone(),
                sync: SyncPolicy::Commit,
            },
        );
        totals.recovery_s.push(secs(t));
        let recovered = match recovered {
            Ok(r) => r,
            Err(_) => {
                out.tally.record("recovery", false, &[Failure::Error]);
                cycle += 1;
                continue;
            }
        };
        let lines: BTreeMap<i64, String> = recovered
            .store()
            .ground_truth_lines()
            .expect("reading recovered text")
            .into_iter()
            .collect();
        let restored = recovered.line_count() == BASE_LINES + acknowledged.len()
            && check_recovery(&acknowledged, &lines);
        let failures: &[Failure] = if restored {
            &[]
        } else {
            &[Failure::LostDocuments]
        };
        out.tally.record("recovery", false, failures);

        // The Table 4 grid over the store this cycle built.
        let mut grid = Grid::new(&recovered);
        grid.warm(&recovered, tracer, &mut out.tally);
        for round in 0..GRID_ROUNDS {
            for a in 0..APPROACHES.len() {
                grid.pass(
                    &recovered,
                    a,
                    tracer,
                    &mut out.tally,
                    (round * 4 + a) as u64,
                );
            }
        }
        for a in 0..APPROACHES.len() {
            totals.t4[a].extend_from_slice(&grid.pass_ms[a]);
        }
        let (p, r) = grid.staccato_quality();
        totals.precision.push(p);
        totals.recall.push(r);

        recovered.checkpoint().expect("final checkpoint");
        let text = recovered.sizes().text as f64;
        totals
            .bytes_per_text
            .push((file_bytes(&db_path) + dir_bytes(&wal_dir)) as f64 / text);
        totals.pages = file_bytes(&db_path) / PAGE_SIZE as u64;
        totals.lines = recovered.line_count();
        if tracer.enabled() && cycle == 0 {
            report_statement_layers(&grid.samples, &mut out);
            scans = grid.samples.clone();
        }
        drop(last.replace(recovered));
        if cycle > 0 {
            let _ = std::fs::remove_dir_all(cfg.work.join(format!("cycle{}", cycle - 1)));
        }
        cycle += 1;
    }

    out.set("setup_s", median(&totals.setup_s));
    out.set("ops_per_s", totals.docs as f64 / totals.ingest_s);
    out.set("op_p50_ms", median(&totals.ack_ms));
    out.set("bench.op_p99_ms", percentile(&totals.ack_ms, 0.99).value);
    for (a, (_, key)) in APPROACHES.iter().enumerate() {
        out.set(format!("t4_ms.{key}"), median(&totals.t4[a]));
    }
    out.set("precision.staccato", mean(&totals.precision));
    out.set("recall.staccato", mean(&totals.recall));
    out.set("bytes_per_text_byte", median(&totals.bytes_per_text));
    out.notes.push(format!(
        "ingest_durable: {cycle} cycles of {BASE_LINES} -> {} lines; docs_per_s {:.1}; batch acks {}",
        totals.lines,
        totals.docs as f64 / totals.ingest_s,
        describe(&totals.ack_ms, "ms")
    ));

    if tracer.enabled() {
        let cycles = cycle as f64;
        out.set(
            "storage.fetches_per_batch",
            ratio(totals.fetches as f64, totals.batches as f64),
        );
        out.set("storage.fetches_per_batch_growth", median(&totals.growth));
        out.set(
            "storage.wal_batches_per_fsync",
            ratio(totals.batches as f64, totals.group_commits as f64),
        );
        out.set(
            "storage.wal_flush_wait_p50_ms",
            median(&totals.flush_wait_ms),
        );
        out.set(
            "storage.wal_flush_wait_p99_ms",
            percentile(&totals.flush_wait_ms, 0.99).value,
        );
        out.set(
            "storage.wal_bytes_per_doc",
            ratio(totals.wal_bytes as f64, totals.docs as f64),
        );
        out.set("storage.checkpoints", totals.checkpoints as f64 / cycles);
        out.set(
            "storage.segments_deleted",
            totals.segments_deleted as f64 / cycles,
        );
        out.set("storage.recovery_s", median(&totals.recovery_s));
        out.set("query.ingest_self_ms", median(&totals.self_ms));
        let texts: Vec<String> = docs
            .iter()
            .take(SIDE_DOCS)
            .map(|(_, t)| t.clone())
            .collect();
        side_build_layers(&opts, &texts, BASE_LINES as u64, tracer, &mut out);
        if let Some(session) = &last {
            side_read_layers(session, &scans, tracer, &mut out);
        }
    }
    out.env = Env {
        workload: "ingest_durable".into(),
        seed: cfg.seed,
        pool_frames: POOL_FRAMES,
        store_pages: totals.pages,
        lines: totals.lines,
        offered_rate: 0.0,
        sync_policy: "Commit (group commit), 2 writers x 2-doc batches".into(),
        checkpoint_policy: format!("background, every {CKPT_EVERY} batches"),
    };
    out
}
