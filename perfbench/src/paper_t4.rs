//! `paper_t4`: the paper's Table 4 grid. One client, closed loop,
//! serial SQL: the 7 CongressActs Table 6 queries over each of the four
//! representations, every statement a FileScan (no index registered),
//! over a file-backed store about four times the buffer pool.

use crate::summary::{describe, median, percentile, ratio, Env};
use crate::trace::Tracer;
use crate::workload::{
    corpus, file_bytes, load_options, report_statement_layers, secs, side_read_layers, Config,
    Grid, Outcome, APPROACHES,
};
use staccato_query::Staccato;
use staccato_storage::{Database, PAGE_SIZE};
use std::time::Instant;

pub const LINES: usize = 1000;
/// About a quarter of the store's ~2.4k pages.
pub const POOL_FRAMES: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let db_path = cfg.work.join("t4.db");
    let opts = load_options(cfg.seed);
    let mut setup_s = Vec::new();
    let mut session: Option<Staccato> = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let _ = std::fs::remove_file(&db_path);
        let t = Instant::now();
        let dataset = corpus(LINES, cfg.seed);
        let db = Database::create(&db_path, POOL_FRAMES).expect("creating the store file");
        let s = Staccato::load(db, &dataset, &opts).expect("loading the corpus");
        s.checkpoint().expect("saving the store");
        setup_s.push(secs(t));
        session = Some(s);
    }
    let session = session.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    let store_pages = file_bytes(&db_path) / PAGE_SIZE as u64;

    let mut grid = Grid::new(&session);
    grid.warm(&session, tracer, &mut out.tally);

    let cache_before = session.query_cache_stats();
    let started = Instant::now();
    let mut rounds_ms = Vec::new();
    let mut request = 1u64;
    while rounds_ms.is_empty() || secs(started) < cfg.seconds {
        let mut round = 0.0;
        for a in 0..APPROACHES.len() {
            round += grid
                .pass(&session, a, tracer, &mut out.tally, request)
                .as_secs_f64()
                * 1e3;
            request += 1;
        }
        rounds_ms.push(round);
    }
    let elapsed = secs(started);
    let statements: u64 = grid.samples.iter().map(|s| s.statements).sum();
    let cache = session.query_cache_stats();

    out.set("ops_per_s", statements as f64 / elapsed);
    out.set("op_p50_ms", median(&rounds_ms));
    out.set("bench.op_p99_ms", percentile(&rounds_ms, 0.99).value);
    grid.report(&mut out);
    let sizes = session.sizes();
    out.set(
        "bytes_per_text_byte",
        file_bytes(&db_path) as f64 / sizes.text as f64,
    );
    out.notes.push(format!(
        "paper_t4: grid rounds of {} statements for {elapsed:.2} s: {}",
        grid.stmts.len(),
        describe(&rounds_ms, "ms")
    ));

    if tracer.enabled() {
        report_statement_layers(&grid.samples, &mut out);
        out.set(
            "query.cache_hit_rate",
            ratio(
                (cache.hits - cache_before.hits) as f64,
                (cache.hits + cache.misses - cache_before.hits - cache_before.misses) as f64,
            ),
        );
        side_read_layers(&session, &grid.samples, tracer, &mut out);
    }
    out.env = Env {
        workload: "paper_t4".into(),
        seed: cfg.seed,
        pool_frames: POOL_FRAMES,
        store_pages,
        lines: session.line_count(),
        offered_rate: 0.0,
        sync_policy: "none (read-only, no WAL)".into(),
        checkpoint_policy: "one checkpoint after load".into(),
    };
    out
}
