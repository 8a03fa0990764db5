//! What the three workloads share: the seeded inputs, the Table 6
//! statements over the four representations, one pass of the Table 4
//! grid with its checks, and the per-layer side measurements.

use crate::check::{check_answer, quality, Answer, Failure, Tally};
use crate::summary::{mean, median, percentile, ratio};
use crate::trace::Tracer;
use staccato_bench::workload::{corpus_dictionary, table6_queries};
use staccato_core::{approximate, StaccatoParams};
use staccato_ocr::{generate, Channel, ChannelConfig, CorpusKind, Dataset};
use staccato_query::metrics::ground_truth;
use staccato_query::sql::quote_str;
use staccato_query::store::LoadOptions;
use staccato_query::{Approach, Query, QueryOutput, ScanScratch, SqlTable, Staccato};
use staccato_sfa::{codec, k_best_paths};
use staccato_storage::PoolStats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const KIND: CorpusKind = CorpusKind::CongressActs;

/// Metric-name keys of the four representations, in grid order.
pub const APPROACHES: [(Approach, &str); 4] = [
    (Approach::Map, "map"),
    (Approach::KMap, "kmap"),
    (Approach::FullSfa, "fullsfa"),
    (Approach::Staccato, "staccato"),
];

/// Everything a workload needs to know about its invocation.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for stores and WALs, removed when the run ends.
    pub work: PathBuf,
}

/// A workload's result: checked-operation counts and named metrics.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
    pub env: crate::summary::Env,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// Construction settings of the existing bins (`throughput`,
/// `http_load`, `scan`).
pub fn load_options(seed: u64) -> LoadOptions {
    LoadOptions {
        channel: ChannelConfig::compact(seed),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    }
}

/// The initial corpus of a store.
pub fn corpus(lines: usize, seed: u64) -> Dataset {
    generate(KIND, lines, seed)
}

/// `n` documents to ingest: lines of a corpus generated from the seed
/// (a different stream than the initial store's), under unique names.
pub fn ingest_docs(seed: u64, n: usize) -> Vec<(String, String)> {
    let stream = seed ^ 0x1d0c_5eed_0000_0000;
    generate(KIND, n, stream)
        .lines()
        .enumerate()
        .map(|(i, (_, _, text))| (format!("ingest-{seed}-{i:06}.png"), text.to_string()))
        .collect()
}

/// The §4 dictionary index every writing workload registers: every
/// word of the initial corpus.
pub fn register_index(session: &Staccato, dataset: &Dataset) {
    let trie = staccato_automata::Trie::build(corpus_dictionary(dataset, 0));
    session
        .register_index(&trie, "inv")
        .expect("registering the dictionary index");
}

/// One Table 6 query on one representation.
pub struct Statement {
    pub approach: usize,
    pub label: String,
    pub pattern: &'static str,
    pub sql: String,
    /// DataKeys whose clean text matches, when known.
    pub truth: BTreeSet<i64>,
}

impl Statement {
    pub fn kmap(&self) -> bool {
        APPROACHES[self.approach].0 == Approach::KMap
    }
    pub fn staccato(&self) -> bool {
        APPROACHES[self.approach].0 == Approach::Staccato
    }
}

/// The 28 statements, representation-major: the 7 CongressActs Table 6
/// queries over MAPData, kMAPData, FullSFAData and StaccatoData.
pub fn statements() -> Vec<Statement> {
    let mut out = Vec::new();
    for (a, (approach, key)) in APPROACHES.iter().enumerate() {
        for q in table6_queries(KIND) {
            out.push(Statement {
                approach: a,
                label: format!("{key}/{}", q.id),
                pattern: q.pattern,
                sql: format!(
                    "SELECT DataKey, Prob FROM {} WHERE Data REGEXP {}",
                    SqlTable::of_approach(*approach).name(),
                    quote_str(q.pattern)
                ),
                truth: BTreeSet::new(),
            });
        }
    }
    out
}

/// Fill each statement's ground truth from the store's clean text.
pub fn fill_truth(session: &Staccato, stmts: &mut [Statement]) {
    for s in stmts.iter_mut() {
        let q = Query::regex(s.pattern).expect("Table 6 pattern compiles");
        s.truth = ground_truth(session.store(), &q).expect("ground truth scan");
    }
}

/// Per-statement measurements, pooled per representation.
#[derive(Default, Clone)]
pub struct StmtSamples {
    /// Span around the call (ms).
    pub call_ms: Vec<f64>,
    /// `ExecStats.exec_wall` (ms).
    pub exec_ms: Vec<f64>,
    /// `ExecStats.plan_wall` (µs).
    pub plan_us: Vec<f64>,
    /// Span minus `ExecStats.wall()` (µs).
    pub overhead_us: Vec<f64>,
    /// FileScan execution time per line of the store (ns).
    pub scan_ns_per_line: Vec<f64>,
    pub lines_evaluated: u64,
    pub lines_in_store: u64,
    pub prescreened: u64,
    pub statements: u64,
    pub probes: u64,
    pub postings: u64,
    pub pool: PoolStats,
}

/// One statement's observation.
pub struct Obs {
    pub call_ms: f64,
    pub exec_ms: f64,
    pub plan_us: f64,
    /// Call time minus plan and execution, when the call was timed
    /// in-process.
    pub overhead_us: Option<f64>,
    pub probe: bool,
    pub lines_evaluated: u64,
    pub line_count: u64,
    pub prescreened: u64,
    pub postings: u64,
}

impl StmtSamples {
    pub fn add(&mut self, o: Obs) {
        self.call_ms.push(o.call_ms);
        self.exec_ms.push(o.exec_ms);
        self.plan_us.push(o.plan_us);
        self.overhead_us.extend(o.overhead_us);
        self.statements += 1;
        if o.probe {
            self.probes += 1;
            self.postings += o.postings;
        } else {
            self.lines_evaluated += o.lines_evaluated;
            self.lines_in_store += o.line_count;
            self.prescreened += o.prescreened;
            self.scan_ns_per_line
                .push(o.exec_ms * 1e6 / o.line_count.max(1) as f64);
        }
    }

    pub fn absorb(&mut self, out: &QueryOutput, call: Duration, line_count: u64) {
        self.add(Obs {
            call_ms: call.as_secs_f64() * 1e3,
            exec_ms: out.stats.exec_wall.as_secs_f64() * 1e3,
            plan_us: out.stats.plan_wall.as_secs_f64() * 1e6,
            overhead_us: Some(call.saturating_sub(out.stats.wall()).as_secs_f64() * 1e6),
            probe: out.plan.is_index_probe(),
            lines_evaluated: out.stats.lines_evaluated,
            line_count,
            prescreened: out.stats.prescreen_skipped,
            postings: out.stats.postings_probed,
        });
        let p = out.stats.pool;
        self.pool.hits += p.hits;
        self.pool.misses += p.misses;
        self.pool.writebacks += p.writebacks;
    }

    pub fn merge(&mut self, o: StmtSamples) {
        self.call_ms.extend(o.call_ms);
        self.exec_ms.extend(o.exec_ms);
        self.plan_us.extend(o.plan_us);
        self.overhead_us.extend(o.overhead_us);
        self.scan_ns_per_line.extend(o.scan_ns_per_line);
        self.lines_evaluated += o.lines_evaluated;
        self.lines_in_store += o.lines_in_store;
        self.prescreened += o.prescreened;
        self.statements += o.statements;
        self.probes += o.probes;
        self.postings += o.postings;
        self.pool.hits += o.pool.hits;
        self.pool.misses += o.pool.misses;
        self.pool.writebacks += o.pool.writebacks;
    }
}

/// The Table 4 grid over one session: passes of the 7 statements per
/// representation, every answer checked.
pub struct Grid {
    pub stmts: Vec<Statement>,
    /// First answer of each statement; a read-only repeat must match.
    first: Vec<Option<Vec<(i64, u64)>>>,
    /// Pass wall times per representation (ms).
    pub pass_ms: [Vec<f64>; 4],
    pub samples: [StmtSamples; 4],
    /// `(true positives, returned, truth size)` per statement, from its
    /// first answer.
    pub quality: Vec<Option<(usize, usize, usize)>>,
}

impl Grid {
    pub fn new(session: &Staccato) -> Grid {
        let mut stmts = statements();
        fill_truth(session, &mut stmts);
        let n = stmts.len();
        Grid {
            stmts,
            first: vec![None; n],
            pass_ms: Default::default(),
            samples: Default::default(),
            quality: vec![None; n],
        }
    }

    /// One untimed round: fills the compiled-query cache and records
    /// each statement's first answer (checked like any other).
    pub fn warm(&mut self, session: &Staccato, tracer: &Tracer, tally: &mut Tally) {
        for a in 0..APPROACHES.len() {
            self.pass(session, a, tracer, tally, 0);
        }
        self.pass_ms = Default::default();
        self.samples = Default::default();
    }

    /// One pass of the 7 queries on representation `a`; returns its
    /// wall time. `request` tags the spans of this pass.
    pub fn pass(
        &mut self,
        session: &Staccato,
        a: usize,
        tracer: &Tracer,
        tally: &mut Tally,
        request: u64,
    ) -> Duration {
        let pass = tracer.span("bench.t4_pass", 0, request);
        let lines = session.line_count() as u64;
        for i in (0..self.stmts.len()).filter(|&i| self.stmts[i].approach == a) {
            let s = &self.stmts[i];
            let (result, call) = tracer.time("query.sql", pass.id, request, || session.sql(&s.sql));
            let out = match result {
                Ok(out) => out,
                Err(_) => {
                    tally.record(&s.label, s.kmap(), &[Failure::Error]);
                    continue;
                }
            };
            self.samples[a].absorb(&out, call, lines);
            let rows: Vec<(i64, f64)> = out
                .answers
                .iter()
                .map(|x| (x.data_key, x.probability))
                .collect();
            let mut failures = check_answer(&Answer {
                rows: &rows,
                filescan_lines: (!out.plan.is_index_probe()).then_some(out.stats.lines_evaluated),
                line_count: (lines, lines),
            });
            let (hits, in_range) = quality(&rows, &s.truth);
            if !in_range {
                failures.push(Failure::QualityRange);
            }
            let bits: Vec<(i64, u64)> = rows.iter().map(|&(k, p)| (k, p.to_bits())).collect();
            match &self.first[i] {
                None => {
                    self.first[i] = Some(bits);
                    self.quality[i] = Some((hits, rows.len(), s.truth.len()));
                }
                Some(first) if *first != bits => failures.push(Failure::Unstable),
                Some(_) => {}
            }
            tally.record(&s.label, s.kmap(), &failures);
        }
        let took = pass.end();
        self.pass_ms[a].push(took.as_secs_f64() * 1e3);
        took
    }

    /// Precision and recall of the Staccato statements, pooled over the
    /// 7 queries (total true positives over total returned, and over
    /// total ground truth), so a query with few matching lines does not
    /// swing the figure.
    pub fn staccato_quality(&self) -> (f64, f64) {
        let (mut hits, mut returned, mut truth) = (0, 0, 0);
        for (s, q) in self.stmts.iter().zip(&self.quality) {
            if let (true, Some((h, r, t))) = (s.staccato(), q) {
                hits += h;
                returned += r;
                truth += t;
            }
        }
        (
            ratio(hits as f64, returned as f64),
            ratio(hits as f64, truth as f64),
        )
    }

    /// `t4_ms.*`, `recall.staccato` and `precision.staccato` into `out`.
    pub fn report(&self, out: &mut Outcome) {
        for (a, (_, key)) in APPROACHES.iter().enumerate() {
            out.set(format!("t4_ms.{key}"), median(&self.pass_ms[a]));
        }
        let (p, r) = self.staccato_quality();
        out.set("precision.staccato", p);
        out.set("recall.staccato", r);
    }
}

/// `query.*` and `storage.pool_*` metrics from per-statement samples.
pub fn report_statement_layers(samples: &[StmtSamples; 4], out: &mut Outcome) {
    let mut pool = PoolStats::default();
    let mut plan = Vec::new();
    let mut overhead = Vec::new();
    let (mut stmts, mut probes, mut postings) = (0u64, 0u64, 0u64);
    for (a, (_, key)) in APPROACHES.iter().enumerate() {
        let s = &samples[a];
        out.set(format!("query.exec_ms.{key}"), median(&s.exec_ms));
        out.set(
            format!("query.stmt_p99_ms.{key}"),
            percentile(&s.call_ms, 0.99).value,
        );
        out.set(
            format!("query.prescreen_skip_rate.{key}"),
            ratio(s.prescreened as f64, s.lines_evaluated as f64),
        );
        out.set(
            format!("query.lines_evaluated_per_line.{key}"),
            ratio(s.lines_evaluated as f64, s.lines_in_store as f64),
        );
        pool.hits += s.pool.hits;
        pool.misses += s.pool.misses;
        pool.writebacks += s.pool.writebacks;
        plan.extend_from_slice(&s.plan_us);
        overhead.extend_from_slice(&s.overhead_us);
        stmts += s.statements;
        probes += s.probes;
        postings += s.postings;
    }
    out.set(
        "storage.pool_hit_rate",
        ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
    );
    out.set(
        "storage.pool_misses_per_stmt",
        ratio(pool.misses as f64, stmts as f64),
    );
    out.set(
        "storage.read_writebacks",
        ratio(pool.writebacks as f64, stmts as f64),
    );
    out.set("query.plan_us", median(&plan));
    if !overhead.is_empty() {
        out.set("query.sql_overhead_us", median(&overhead));
    }
    out.set(
        "query.index_probe_share",
        ratio(probes as f64, stmts as f64),
    );
    out.set(
        "query.postings_per_probe",
        ratio(postings as f64, probes as f64),
    );
}

/// Bytes of every regular file under `dir` (a WAL directory).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Side measurements of the read layers on `session`'s store, each in
/// its own span: blob reads through the pool with an empty visitor,
/// owned decode of every blob, the scan kernel on rows fetched
/// beforehand, and pattern compilation. `scans` are the workload's own
/// statements, against which the layers' share is accounted.
pub fn side_read_layers(
    session: &Staccato,
    scans: &[StmtSamples; 4],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let store = session.store();
    let lines = session.line_count().max(1) as f64;
    let sizes = session.sizes();
    out.set(
        "sfa.blob_bytes_per_line.fullsfa",
        sizes.full_sfa as f64 / lines,
    );
    out.set(
        "sfa.blob_bytes_per_line.staccato",
        sizes.staccato as f64 / lines,
    );
    let queries: Vec<Query> = table6_queries(KIND)
        .iter()
        .map(|q| Query::regex(q.pattern).expect("Table 6 pattern compiles"))
        .collect();

    let mut compile_us = Vec::new();
    for _ in 0..5 {
        for q in table6_queries(KIND) {
            let (compiled, took) =
                tracer.time("automata.compile", 0, 0, || Query::regex(q.pattern));
            std::hint::black_box(compiled.expect("Table 6 pattern compiles"));
            compile_us.push(took.as_secs_f64() * 1e6);
        }
    }
    out.set("automata.compile_us", median(&compile_us));

    // MAP and k-MAP rows, fetched beforehand, through the kernel.
    let map_rows: Vec<(String, f64)> = store
        .map_cursor()
        .expect("MAP cursor")
        .map(|r| {
            let (_, s, p) = r.expect("MAP row");
            (s, p)
        })
        .collect();
    let kmap_rows: Vec<Vec<(String, f64)>> = store
        .kmap_cursor()
        .expect("k-MAP cursor")
        .map(|r| r.expect("k-MAP row").1)
        .collect();
    let kernel_ns = |name: &'static str, eval: &mut dyn FnMut(&Query) -> usize| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut total = 0.0;
            let mut evaluated = 0usize;
            for q in &queries {
                let (n, took) = tracer.time(name, 0, 0, || eval(q));
                total += took.as_secs_f64() * 1e9;
                evaluated += n;
            }
            best = best.min(total / evaluated.max(1) as f64);
        }
        best
    };
    let map_ns = kernel_ns("query.kernel.map", &mut |q| {
        for (s, p) in &map_rows {
            std::hint::black_box(q.kernel.eval_string(s, *p));
        }
        map_rows.len()
    });
    out.set("query.kernel_ns_per_line.map", map_ns);
    let kmap_ns = kernel_ns("query.kernel.kmap", &mut |q| {
        for group in &kmap_rows {
            std::hint::black_box(
                q.kernel
                    .eval_string_group(group.iter().map(|(s, p)| (s.as_str(), *p))),
            );
        }
        kmap_rows.len()
    });
    out.set("query.kernel_ns_per_line.kmap", kmap_ns);

    for (a, key, full) in [(2, "fullsfa", true), (3, "staccato", false)] {
        let visit = |f: &mut dyn FnMut(i64, &[u8])| {
            let each = |k: i64, blob: &[u8]| {
                f(k, blob);
                Ok(())
            };
            if full {
                store.for_each_full_sfa_blob(each)
            } else {
                store.for_each_staccato_blob(each)
            }
            .expect("blob visit");
        };
        let read_name = if full {
            "storage.blob_read.fullsfa"
        } else {
            "storage.blob_read.staccato"
        };
        let mut read_ns = Vec::new();
        for _ in 0..3 {
            let ((), took) = tracer.time(read_name, 0, 0, || {
                visit(&mut |k, b| {
                    std::hint::black_box((k, b.len()));
                })
            });
            read_ns.push(took.as_secs_f64() * 1e9 / lines);
        }
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        visit(&mut |_, b| blobs.push(b.to_vec()));
        let decode_name = if full {
            "sfa.decode.fullsfa"
        } else {
            "sfa.decode.staccato"
        };
        let ((), took) = tracer.time(decode_name, 0, 0, || {
            for b in &blobs {
                std::hint::black_box(codec::decode(b).expect("stored blob decodes"));
            }
        });
        let decode_ns = took.as_secs_f64() * 1e9 / blobs.len().max(1) as f64;
        let kernel_name = if full {
            "query.kernel.fullsfa"
        } else {
            "query.kernel.staccato"
        };
        let mut scratch = ScanScratch::new();
        let k_ns = kernel_ns(kernel_name, &mut |q| {
            for b in &blobs {
                std::hint::black_box(
                    q.kernel
                        .eval_blob(&mut scratch, b)
                        .expect("stored blob evaluates"),
                );
            }
            blobs.len()
        });
        let read = median(&read_ns);
        out.set(format!("storage.blob_read_ns_per_line.{key}"), read);
        out.set(format!("sfa.decode_ns_per_line.{key}"), decode_ns);
        out.set(format!("query.kernel_ns_per_line.{key}"), k_ns);
        // What the measured layers account for of one FileScan's
        // execution, per line. The kernel's own time includes its
        // arena decode, so the owned decode above is not added again.
        out.set(
            format!("query.accounted_fraction.{key}"),
            ratio(read + k_ns, mean(&scans[a].scan_ns_per_line)),
        );
    }
}

/// Side measurements of the write-path layers on the texts a workload
/// ingested, with the session's construction settings: the OCR channel,
/// k-best paths, the FullSFA encode and the Staccato approximation.
pub fn side_build_layers(
    opts: &LoadOptions,
    texts: &[String],
    first_key: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let channel = Channel::new(opts.channel.clone());
    let (mut ch, mut kb, mut en, mut ap) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, text) in texts.iter().enumerate() {
        let req = first_key + i as u64;
        let (sfa, t) = tracer.time("ocr.line_to_sfa", 0, req, || channel.line_to_sfa(text, req));
        ch.push(t.as_secs_f64() * 1e6);
        let (paths, t) = tracer.time("sfa.k_best_paths", 0, req, || {
            k_best_paths(&sfa, opts.kmap_k)
        });
        std::hint::black_box(paths);
        kb.push(t.as_secs_f64() * 1e6);
        let (blob, t) = tracer.time("sfa.encode", 0, req, || codec::encode(&sfa));
        std::hint::black_box(blob);
        en.push(t.as_secs_f64() * 1e6);
        let (stac, t) = tracer.time("core.approximate", 0, req, || {
            approximate(&sfa, opts.staccato)
        });
        std::hint::black_box(stac);
        ap.push(t.as_secs_f64() * 1e6);
    }
    out.set("ocr.channel_us_per_doc", mean(&ch));
    out.set("sfa.kbest_us_per_doc", mean(&kb));
    out.set("sfa.encode_us_per_doc", mean(&en));
    out.set("core.approximate_us_per_doc", mean(&ap));
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
