//! Scan-kernel microbench: per-line evaluation cost of the naive
//! reference path (owned-row cursors + `eval_strings` / decode +
//! `eval_sfa`) against the compiled [`ScanKernel`] (dense DFA, arena
//! decode, anchor prescreen), per representation and per query.
//!
//! ```text
//! scan [--lines N] [--seed S] [--reps R] [--out PATH]
//! ```
//!
//! Both sides run the identical single-thread loop shape — cursor →
//! per-line probability → bounded top-k — so the measured delta is the
//! evaluation kernel itself, not sink or I/O differences. Every rep
//! asserts the two paths produce bit-identical answer sets before any
//! timing is trusted. `BENCH_scan.json` records min-of-reps ns/line per
//! (approach, query), the prescreen skip rate, and a `headline` object
//! (total Staccato speedup across the query set) that CI gates on.
//!
//! [`ScanKernel`]: staccato_query::ScanKernel

use staccato_core::StaccatoParams;
use staccato_ocr::{generate, ChannelConfig, CorpusKind};
use staccato_query::store::{LoadOptions, OcrStore};
use staccato_query::{eval_sfa, eval_strings, Answer, Approach, Query, ScanScratch, TopK};
use staccato_sfa::codec;
use staccato_storage::Database;
use std::time::Instant;

/// The query mix: anchored keywords (prescreen-friendly), a LIKE
/// containment, a disjunctive regex, and a stopword whose literal is
/// everywhere (prescreen rarely skips — the kernel must win on raw
/// evaluation speed there, not on skipping).
const QUERIES: &[(&str, &str, bool)] = &[
    ("president", "President", false),
    ("commission", "%Commission%", true),
    ("public-law", r"Public Law (8|9)\d", false),
    ("the", "the", false),
];

struct Config {
    lines: usize,
    seed: u64,
    reps: usize,
    out: String,
}

/// One measured (approach, query) cell.
struct Cell {
    approach: &'static str,
    query: &'static str,
    lines: u64,
    naive_ns_per_line: f64,
    kernel_ns_per_line: f64,
    prescreen_skip_rate: f64,
}

fn main() {
    let mut cfg = Config {
        lines: 300,
        seed: 42,
        reps: 3,
        out: "BENCH_scan.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--lines" => cfg.lines = next("--lines").parse().expect("lines"),
            "--seed" => cfg.seed = next("--seed").parse().expect("seed"),
            "--reps" => cfg.reps = next("--reps").parse().expect("reps"),
            "--out" => cfg.out = next("--out").clone(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(cfg.lines >= 1 && cfg.reps >= 1);

    eprintln!(
        "loading {} lines of CongressActs (seed {}) ...",
        cfg.lines, cfg.seed
    );
    let dataset = generate(CorpusKind::CongressActs, cfg.lines, cfg.seed);
    // A pool big enough to keep the corpus resident: this bench measures
    // evaluation cost, not buffer-pool behaviour (BENCH_throughput owns
    // that axis).
    let db = Database::in_memory(4096).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(cfg.seed),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    let store = OcrStore::load(db, &dataset, &opts).expect("load");

    let mut cells: Vec<Cell> = Vec::new();
    for &(name, pattern, is_like) in QUERIES {
        let q = if is_like {
            Query::like(pattern)
        } else {
            Query::regex(pattern)
        }
        .expect("bench pattern compiles");
        for approach in Approach::all() {
            // Correctness first: the kernel must reproduce the naive
            // answer relation bit-for-bit before its timing means
            // anything.
            let (naive_answers, lines) = naive_scan(&store, approach, &q);
            let (kernel_answers, _, skipped) = kernel_scan(&store, approach, &q);
            assert_eq!(
                naive_answers.len(),
                kernel_answers.len(),
                "{name}/{}: answer count diverged",
                approach.name()
            );
            for (a, b) in naive_answers.iter().zip(&kernel_answers) {
                assert_eq!(a.data_key, b.data_key, "{name}/{}", approach.name());
                assert_eq!(
                    a.probability.to_bits(),
                    b.probability.to_bits(),
                    "{name}/{}: probability diverged at key {}",
                    approach.name(),
                    a.data_key
                );
            }
            // min-of-reps: the steadiest estimate of the per-line cost.
            let mut naive_best = f64::INFINITY;
            let mut kernel_best = f64::INFINITY;
            for _ in 0..cfg.reps {
                let t = Instant::now();
                let _ = naive_scan(&store, approach, &q);
                naive_best = naive_best.min(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                let _ = kernel_scan(&store, approach, &q);
                kernel_best = kernel_best.min(t.elapsed().as_nanos() as f64);
            }
            let cell = Cell {
                approach: approach.name(),
                query: name,
                lines,
                naive_ns_per_line: naive_best / lines.max(1) as f64,
                kernel_ns_per_line: kernel_best / lines.max(1) as f64,
                prescreen_skip_rate: skipped as f64 / lines.max(1) as f64,
            };
            eprintln!(
                "{:>8} {:<12} naive {:>12.0} ns/line  kernel {:>12.0} ns/line  ({:>5.2}x, {:>5.1}% prescreened)",
                cell.approach,
                cell.query,
                cell.naive_ns_per_line,
                cell.kernel_ns_per_line,
                cell.naive_ns_per_line / cell.kernel_ns_per_line.max(1e-9),
                cell.prescreen_skip_rate * 100.0
            );
            cells.push(cell);
        }
    }

    // Headline: total Staccato filescan cost across the query set — one
    // ratio, robust to any single query dominating.
    let headline = headline_of(&cells, "STACCATO");
    let fullsfa = headline_of(&cells, "FullSFA");

    let results: Vec<String> = cells.iter().map(cell_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"scan\",\n  \"corpus\": \"CongressActs\",\n  \"lines\": {},\n  \"seed\": {},\n  \"reps\": {},\n  \"queries\": {},\n  \"results\": [\n    {}\n  ],\n  \"headline\": {},\n  \"fullsfa\": {}\n}}\n",
        cfg.lines,
        cfg.seed,
        cfg.reps,
        QUERIES.len(),
        results.join(",\n    "),
        headline,
        fullsfa,
    );
    std::fs::write(&cfg.out, &json).expect("write BENCH json");
    println!("-> {}", cfg.out);
}

/// Sum a representation's naive and kernel cost over the whole query
/// set and emit its summary JSON object.
fn headline_of(cells: &[Cell], approach: &str) -> String {
    let naive: f64 = cells
        .iter()
        .filter(|c| c.approach == approach)
        .map(|c| c.naive_ns_per_line)
        .sum();
    let kernel: f64 = cells
        .iter()
        .filter(|c| c.approach == approach)
        .map(|c| c.kernel_ns_per_line)
        .sum();
    format!(
        "{{\"approach\": \"{}\", \"naive_ns_per_line\": {:.1}, \"kernel_ns_per_line\": {:.1}, \"speedup\": {:.3}}}",
        approach,
        naive,
        kernel,
        naive / kernel.max(1e-9)
    )
}

fn cell_json(c: &Cell) -> String {
    format!(
        "{{\"approach\": \"{}\", \"query\": \"{}\", \"lines\": {}, \"naive_ns_per_line\": {:.1}, \"kernel_ns_per_line\": {:.1}, \"speedup\": {:.3}, \"prescreen_skip_rate\": {:.4}}}",
        c.approach,
        c.query,
        c.lines,
        c.naive_ns_per_line,
        c.kernel_ns_per_line,
        c.naive_ns_per_line / c.kernel_ns_per_line.max(1e-9),
        c.prescreen_skip_rate
    )
}

/// The pre-kernel evaluation path, reconstructed over the public owned
/// cursors: per-row `String`/`Sfa` materialization, `run_from` per label
/// per live state, fresh DP vectors per row.
fn naive_scan(store: &OcrStore, approach: Approach, q: &Query) -> (Vec<Answer>, u64) {
    let mut topk = TopK::new(100);
    let mut lines = 0u64;
    match approach {
        Approach::Map => {
            for item in store.map_cursor().expect("cursor") {
                let (key, s, p) = item.expect("row");
                lines += 1;
                topk.push(Answer {
                    data_key: key,
                    probability: eval_strings(&q.dfa, std::iter::once((s.as_str(), p))),
                });
            }
        }
        Approach::KMap => {
            for item in store.kmap_cursor().expect("cursor") {
                let (key, strings) = item.expect("row");
                lines += 1;
                topk.push(Answer {
                    data_key: key,
                    probability: eval_strings(
                        &q.dfa,
                        strings.iter().map(|(s, p)| (s.as_str(), *p)),
                    ),
                });
            }
        }
        Approach::FullSfa | Approach::Staccato => {
            // The owned copy per row is part of the reference path.
            let each = |key: i64, blob: &[u8]| {
                let blob = blob.to_vec();
                lines += 1;
                topk.push(Answer {
                    data_key: key,
                    probability: eval_sfa(&q.dfa, &codec::decode(&blob).expect("blob")),
                });
                Ok(())
            };
            match approach {
                Approach::FullSfa => store.for_each_full_sfa_blob(each),
                _ => store.for_each_staccato_blob(each),
            }
            .expect("blob visit");
        }
    }
    (topk.into_ranked(), lines)
}

/// The compiled path: the same cursor → evaluate → top-k loop, with
/// per-line evaluation through the query's
/// [`staccato_query::ScanKernel`] and blob rows streamed *borrowed*
/// (one reusable buffer) instead of materialized per row. Returns the
/// prescreen skip count alongside the answers.
fn kernel_scan(store: &OcrStore, approach: Approach, q: &Query) -> (Vec<Answer>, u64, u64) {
    let mut topk = TopK::new(100);
    let mut lines = 0u64;
    let mut skipped = 0u64;
    match approach {
        Approach::Map => {
            for item in store.map_cursor().expect("cursor") {
                let (key, s, p) = item.expect("row");
                lines += 1;
                let out = q.kernel.eval_string(&s, p);
                skipped += u64::from(out.prescreened);
                topk.push(Answer {
                    data_key: key,
                    probability: out.probability,
                });
            }
        }
        Approach::KMap => {
            for item in store.kmap_cursor().expect("cursor") {
                let (key, strings) = item.expect("row");
                lines += 1;
                let out = q
                    .kernel
                    .eval_string_group(strings.iter().map(|(s, p)| (s.as_str(), *p)));
                skipped += u64::from(out.prescreened);
                topk.push(Answer {
                    data_key: key,
                    probability: out.probability,
                });
            }
        }
        Approach::FullSfa | Approach::Staccato => {
            let mut scratch = ScanScratch::new();
            let each = |key: i64, blob: &[u8]| {
                lines += 1;
                let out = q.kernel.eval_blob(&mut scratch, blob).expect("blob");
                skipped += u64::from(out.prescreened);
                topk.push(Answer {
                    data_key: key,
                    probability: out.probability,
                });
                Ok(())
            };
            match approach {
                Approach::FullSfa => store.for_each_full_sfa_blob(each),
                _ => store.for_each_staccato_blob(each),
            }
            .expect("blob visit");
        }
    }
    (topk.into_ranked(), lines, skipped)
}
