//! Storage access paths seen from the session: heap appends land at the
//! tail, so every line's rows stay contiguous and an append costs the
//! same however large the store is; reads take read latches only, so a
//! read-only workload never dirties (and never writes back) a page.

use staccato::approx::StaccatoParams;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::store::{LoadOptions, OcrStore};
use staccato::query::RecoverOptions;
use staccato::storage::{Database, StorageError};
use staccato::{
    AggregateFunc, Approach, DocumentInput, IngestBatch, QueryRequest, Staccato, SyncPolicy,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("staccato_ap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// EnglishLit with k = 25: enough k-MAP rows per line that a line's
/// group straddles heap pages, which is where first-fit appends used to
/// split it.
fn englishlit_options() -> LoadOptions {
    LoadOptions {
        channel: ChannelConfig::compact(42),
        kmap_k: 25,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    }
}

const APPROACHES: [Approach; 4] = [
    Approach::Map,
    Approach::KMap,
    Approach::FullSfa,
    Approach::Staccato,
];

/// Every approach's FileScan evaluates each line exactly once and
/// answers each DataKey at most once, with a probability in [0, 1].
fn assert_one_answer_per_line(session: &Staccato, what: &str) {
    let lines = session.line_count();
    for approach in APPROACHES {
        let out = session
            .execute(
                &QueryRequest::keyword("e")
                    .approach(approach)
                    .num_ans(10 * lines),
            )
            .expect("scan");
        assert_eq!(
            out.stats.lines_evaluated, lines as u64,
            "{what}: {approach:?} evaluated {} lines of {lines}",
            out.stats.lines_evaluated
        );
        let mut keys = HashSet::new();
        for a in &out.answers {
            assert!(
                keys.insert(a.data_key),
                "{what}: {approach:?} answered DataKey {} twice",
                a.data_key
            );
            assert!(
                (0.0..=1.0 + 1e-9).contains(&a.probability),
                "{what}: {approach:?} DataKey {} has probability {}",
                a.data_key,
                a.probability
            );
        }
    }
}

fn batch(n: usize) -> IngestBatch {
    let lines: Vec<String> = generate(CorpusKind::EnglishLit, 2, 1000 + n as u64)
        .lines()
        .map(|(_, _, l)| l.to_string())
        .collect();
    lines
        .into_iter()
        .enumerate()
        .fold(IngestBatch::new(), |b, (i, text)| {
            b.doc(DocumentInput::new(format!("ingest-{n}-{i}"), text))
        })
}

#[test]
fn freshly_loaded_store_answers_each_line_once() {
    let dataset = generate(CorpusKind::EnglishLit, 40, 42);
    let db = Database::in_memory(2048).expect("db");
    let session = Staccato::load(db, &dataset, &englishlit_options()).expect("load");
    assert_eq!(session.line_count(), 40);
    assert_one_answer_per_line(&session, "fresh load");
}

/// k-MAP lines whose rows straddle heap pages fold to the same bits at
/// every worker count: a line belongs to the worker holding the page of
/// its first row, which reads ahead to finish it, and whoever holds the
/// next page skips the continuation. MAP rides along as the one-row case.
#[test]
fn straddling_kmap_lines_fold_bit_identically_at_every_worker_count() {
    let dataset = generate(CorpusKind::EnglishLit, 40, 42);
    let db = Database::in_memory(2048).expect("db");
    let session = Staccato::load(db, &dataset, &englishlit_options()).expect("load");
    let store = session.store();
    let lines = session.line_count();

    // Precondition: some line's kMAPData rows sit on two heap pages.
    let (_, heap) = store.table("kMAPData").expect("table");
    let mut pages_of: BTreeMap<i64, BTreeSet<u64>> = BTreeMap::new();
    let mut kmap_rows = 0u64;
    heap.for_each_row(store.db().pool(), |rid, row| -> Result<(), StorageError> {
        let key = i64::from_le_bytes(row[..8].try_into().expect("DataKey"));
        pages_of.entry(key).or_default().insert(rid.page);
        kmap_rows += 1;
        Ok(())
    })
    .expect("walk kMAPData");
    let straddling = pages_of.values().filter(|p| p.len() > 1).count();
    assert!(straddling > 0, "no k-MAP line straddles a page");

    for pattern in ["e", "the", "(a|e)n", "Ho"] {
        let request = QueryRequest::regex(pattern).num_ans(10 * lines);
        let query = request.compile().expect("pattern compiles");
        let mut kmap_oracle = BTreeMap::new();
        for group in store.kmap_cursor().expect("k-MAP cursor") {
            let (key, strings) = group.expect("k-MAP row");
            let out = query
                .kernel
                .eval_string_group(strings.iter().map(|(s, p)| (s.as_str(), *p)));
            kmap_oracle.insert(key, out.probability);
        }
        let mut map_oracle = BTreeMap::new();
        for row in store.map_cursor().expect("MAP cursor") {
            let (key, s, p) = row.expect("MAP row");
            map_oracle.insert(key, query.kernel.eval_string(&s, p).probability);
        }
        for (approach, oracle) in [(Approach::KMap, &kmap_oracle), (Approach::Map, &map_oracle)] {
            let what = |threads: usize| format!("{approach:?} {pattern:?} at {threads} workers");
            let expect: BTreeMap<i64, u64> = oracle
                .iter()
                .filter(|(_, p)| **p > 0.0)
                .map(|(k, p)| (*k, p.to_bits()))
                .collect();
            let serial = session
                .execute(&request.clone().approach(approach))
                .expect("serial scan");
            for threads in [1, 2, 4] {
                let out = session
                    .execute(&request.clone().approach(approach).parallelism(threads))
                    .expect("scan");
                let got: BTreeMap<i64, u64> = out
                    .answers
                    .iter()
                    .map(|a| (a.data_key, a.probability.to_bits()))
                    .collect();
                assert_eq!(
                    got.len(),
                    out.answers.len(),
                    "{}: repeated DataKey",
                    what(threads)
                );
                assert_eq!(got, expect, "{}", what(threads));
                assert_eq!(out.stats.lines_evaluated, lines as u64, "{}", what(threads));
                assert_eq!(
                    out.stats.rows_scanned,
                    serial.stats.rows_scanned,
                    "{}",
                    what(threads)
                );
                assert_eq!(
                    out.stats.prescreen_skipped,
                    serial.stats.prescreen_skipped,
                    "{}",
                    what(threads)
                );
                let count = session
                    .execute(
                        &request
                            .clone()
                            .approach(approach)
                            .parallelism(threads)
                            .aggregate(AggregateFunc::CountStar),
                    )
                    .expect("COUNT(*)")
                    .aggregate
                    .expect("aggregate result")
                    .value;
                assert_eq!(count, expect.len() as f64, "{}: COUNT(*)", what(threads));
            }
            if approach == Approach::KMap {
                assert_eq!(serial.stats.rows_scanned, kmap_rows);
            }
        }
    }
}

#[test]
fn recovered_store_answers_each_line_once() {
    let dir = TempDir::new("kmap");
    let db_path = dir.path().join("store.db");
    let wal_dir = dir.path().join("wal");
    let opts = englishlit_options();
    let recover = || {
        Staccato::recover_with(
            &db_path,
            &wal_dir,
            &RecoverOptions {
                pool_frames: 2048,
                load: opts.clone(),
                sync: SyncPolicy::Never,
            },
        )
        .expect("recover")
    };
    {
        let dataset = generate(CorpusKind::EnglishLit, 40, 42);
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        session.checkpoint().expect("checkpoint");
        session
            .attach_wal(&wal_dir, SyncPolicy::Never)
            .expect("attach");
        for n in 0..6 {
            session.ingest(batch(n)).expect("ingest");
        }
        // Crash: no checkpoint since load.
    }
    {
        // Replay appends onto the reopened heaps; then more ingest into
        // the reopened store, and another crash.
        let session = recover();
        assert_eq!(session.line_count(), 52);
        assert_one_answer_per_line(&session, "first recovery");
        for n in 6..12 {
            session.ingest(batch(n)).expect("ingest after recovery");
        }
        assert_one_answer_per_line(&session, "ingest into a reopened store");
    }
    let session = recover();
    assert_eq!(session.line_count(), 64);
    assert_one_answer_per_line(&session, "second recovery");
}

#[test]
fn ingest_page_fetches_stay_flat_as_the_store_grows() {
    let dataset = generate(CorpusKind::CongressActs, 20, 7);
    let db = Database::in_memory(4096).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(7),
        kmap_k: 8,
        staccato: StaccatoParams::new(6, 4),
        parallelism: 2,
    };
    let session = Staccato::load(db, &dataset, &opts).expect("load");
    let texts: Vec<String> = generate(CorpusKind::CongressActs, 400, 8)
        .lines()
        .map(|(_, _, l)| l.to_string())
        .collect();
    // Page fetches (hits + misses) of each one-document batch.
    let fetches: Vec<u64> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let before = session.pool_stats();
            session
                .ingest(IngestBatch::new().doc(DocumentInput::new(format!("d{i}"), text.clone())))
                .expect("ingest");
            let delta = session.pool_stats().delta_since(before);
            delta.hits + delta.misses
        })
        .collect();
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let early = mean(&fetches[50..100]);
    let late = mean(&fetches[350..400]);
    // B+-tree primary indexes may gain a level; heap appends must not
    // grow with the chain at all.
    assert!(
        late <= early * 1.15,
        "page fetches per batch grew from {early:.1} to {late:.1}"
    );
}

#[test]
fn read_only_grid_on_a_reopened_store_writes_back_nothing() {
    let dir = TempDir::new("ro");
    let db_path = dir.path().join("store.db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(3),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    {
        let dataset = generate(CorpusKind::CongressActs, 80, 3);
        let db = Database::create(&db_path, 2048).expect("create");
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        session.checkpoint().expect("checkpoint");
    }
    let db = Database::open(&db_path, 64).expect("open");
    let session = Staccato::open(OcrStore::reopen(db, &opts).expect("reopen"));
    let before = session.pool_stats();
    for approach in APPROACHES {
        for parallelism in [1, 2] {
            session
                .execute(
                    &QueryRequest::keyword("President")
                        .approach(approach)
                        .parallelism(parallelism),
                )
                .expect("scan");
        }
    }
    let delta = session.pool_stats().delta_since(before);
    assert!(
        delta.evictions > 0,
        "the store must not fit the pool: {delta:?}"
    );
    assert_eq!(delta.writebacks, 0, "{delta:?}");
    assert_eq!(session.pool_stats().writebacks, 0);
}
