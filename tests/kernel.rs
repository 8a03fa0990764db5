//! Differential tests for the compiled scan kernel: on every row the
//! kernel must produce *bit-identical* (`f64::to_bits`) probabilities to
//! the naive reference evaluators (`eval_sfa` / `eval_strings`), across
//! random SFAs, random patterns, and all four representations — and a
//! prescreen skip must only ever happen on rows whose exact probability
//! under the full DP is zero.

use proptest::prelude::*;
use staccato::approx::{approximate, StaccatoParams};
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::kernel::ScanScratch;
use staccato::query::store::{LoadOptions, OcrStore};
use staccato::query::{eval_sfa, eval_strings, Query};
use staccato::sfa::{codec, Emission, Sfa, SfaBuilder};
use staccato::storage::Database;
use staccato_bench::table6_queries;

/// How a position's emission labels are drawn.
#[derive(Debug, Clone, Copy)]
enum Labels {
    /// One ASCII character per emission, like OCRopus output.
    Char,
    /// 2–4-byte ASCII labels, like short Staccato chunks.
    Short,
    /// Some labels carry multi-byte UTF-8 characters.
    NonAscii,
    /// One-character labels plus an extra emission of probability zero.
    ZeroProb,
}

/// A small random SFA shaped like OCR output — a chain with occasional
/// two-branch bubbles (same shape `tests/properties.rs` uses) — whose
/// positions mix the label kinds of [`Labels`].
fn sfa_strategy() -> impl Strategy<Value = Sfa> {
    let labels = prop::sample::select(vec![
        Labels::Char,
        Labels::Short,
        Labels::NonAscii,
        Labels::ZeroProb,
    ]);
    let position = prop::collection::vec(
        (prop::sample::select([2usize, 3, 4]), any::<u32>(), labels),
        2..8,
    );
    (position, any::<bool>()).prop_map(|(positions, bubble)| {
        let mut b = SfaBuilder::new();
        let start = b.add_node();
        let mut cur = start;
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789".chars().collect();
        let wide = ['é', 'ß', '€', 'ü'];
        for (i, (fanout, salt, kind)) in positions.iter().enumerate() {
            let next = b.add_node();
            let mut chars: Vec<char> = (0..*fanout)
                .map(|j| alphabet[((salt >> (j * 5)) as usize + j * 7 + i) % alphabet.len()])
                .collect();
            chars.sort_unstable();
            chars.dedup();
            let n = chars.len();
            let mut emissions: Vec<Emission> = chars
                .into_iter()
                .enumerate()
                .map(|(j, c)| {
                    let p = (j + 1) as f64 / (n * (n + 1) / 2) as f64;
                    let extra = (salt >> (j * 3)) as usize;
                    let label: String = match kind {
                        Labels::Short => (0..2 + extra % 3)
                            .map(|t| alphabet[(c as usize + t * (extra % 5 + 1)) % alphabet.len()])
                            .collect(),
                        Labels::NonAscii if extra & 1 == 0 => {
                            format!("{c}{}", wide[extra / 2 % wide.len()])
                        }
                        _ => c.to_string(),
                    };
                    Emission::new(label, p)
                })
                .collect();
            if let Labels::ZeroProb = kind {
                emissions.push(Emission::new(alphabet[*salt as usize % 3].to_string(), 0.0));
            }
            if bubble && i == 1 && emissions.len() >= 2 {
                let (left, right) = emissions.split_at(1);
                let mid = b.add_node();
                b.add_edge(cur, mid, left.to_vec());
                b.add_edge(mid, next, vec![Emission::new("_", 1.0)]);
                b.add_edge(cur, next, right.to_vec());
            } else {
                b.add_edge(cur, next, emissions);
            }
            cur = next;
        }
        b.build(start, cur).expect("generated SFA is valid")
    })
}

/// A random pattern in the supported dialect, built from an AST so it is
/// always syntactically valid.
fn pattern_strategy() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec![
        "a".to_string(),
        "b".to_string(),
        "c".to_string(),
        r"\d".to_string(),
        "[ab]".to_string(),
    ]);
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
            inner.clone().prop_map(|a| format!("({a})*")),
            inner.clone().prop_map(|a| format!("({a})?")),
            inner.prop_map(|a| format!("({a})+")),
        ]
    })
}

/// Assert the kernel evaluates `blob` bit-identically to the naive DP,
/// and that a prescreen skip only happens on exactly-zero rows.
fn assert_blob_identity(q: &Query, blob: &[u8], scratch: &mut ScanScratch) {
    let naive = eval_sfa(&q.dfa, &codec::decode(blob).unwrap());
    let out = q.kernel.eval_blob(scratch, blob).unwrap();
    assert_eq!(
        out.probability.to_bits(),
        naive.to_bits(),
        "pattern {:?}: kernel={} naive={} (prescreened={})",
        q.pattern,
        out.probability,
        naive,
        out.prescreened
    );
    if out.prescreened {
        assert_eq!(naive, 0.0, "prescreen skipped a row with mass");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // FullSFA and Staccato blobs under random regex patterns. The
    // Staccato approximations exercise multi-character chunk labels (one
    // -byte labels step the table, longer ones are walked in place); the
    // scratch is reused across every blob of a case, as a scan worker
    // would.
    #[test]
    fn kernel_blob_eval_is_bit_identical(sfa in sfa_strategy(), pattern in pattern_strategy()) {
        let q = Query::regex(&pattern).unwrap();
        let mut scratch = ScanScratch::new();
        assert_blob_identity(&q, &codec::encode(&sfa), &mut scratch);
        for (m, k) in [(3usize, 2usize), (8, 4)] {
            let blob = codec::encode(&approximate(&sfa, StaccatoParams::new(m, k)));
            assert_blob_identity(&q, &blob, &mut scratch);
        }
    }

    // Patterns whose DFA has more than 64 states turn tier 2 off, so
    // rows that pass tier 1 go straight to the exact DP.
    #[test]
    fn kernel_blob_eval_is_bit_identical_without_tier2(
        sfa in sfa_strategy(),
        pattern in prop::sample::select(vec![
            "a[ab][ab][ab][ab][ab][ab]c",
            "a[a-z0-9][a-z0-9][a-z0-9][a-z0-9][a-z0-9][a-z0-9]b",
            "[ab][a-z][a-z][a-z][a-z][a-z]b",
        ]),
    ) {
        let q = Query::regex(pattern).unwrap();
        prop_assert!(q.kernel.dense().state_count() > 64, "{} states", q.kernel.dense().state_count());
        let mut scratch = ScanScratch::new();
        assert_blob_identity(&q, &codec::encode(&sfa), &mut scratch);
        for (m, k) in [(3usize, 2usize), (8, 4)] {
            let blob = codec::encode(&approximate(&sfa, StaccatoParams::new(m, k)));
            assert_blob_identity(&q, &blob, &mut scratch);
        }
    }

    // A scratch holds nothing across rows that depends on the kernel:
    // interleaving two kernels over one scratch gives the same bits as a
    // fresh scratch per evaluation.
    #[test]
    fn scratch_reuse_across_kernels_is_bit_identical(
        sfa in sfa_strategy(),
        first in pattern_strategy(),
        second in "[a-z0-9]{1,3}",
    ) {
        let kernels = [Query::regex(&first).unwrap(), Query::keyword(&second).unwrap()];
        let blobs = [
            codec::encode(&sfa),
            codec::encode(&approximate(&sfa, StaccatoParams::new(4, 3))),
        ];
        let mut shared = ScanScratch::new();
        for blob in &blobs {
            for q in kernels.iter().chain(kernels.iter().rev()) {
                let reused = q.kernel.eval_blob(&mut shared, blob).unwrap();
                let fresh = q.kernel.eval_blob(&mut ScanScratch::new(), blob).unwrap();
                prop_assert_eq!(reused.probability.to_bits(), fresh.probability.to_bits());
                prop_assert_eq!(reused.prescreened, fresh.prescreened);
            }
        }
    }

    // Keyword queries carry a required literal, so this drives both
    // prescreen tiers hard: most random keywords miss most random SFAs.
    #[test]
    fn kernel_prescreen_is_sound_on_keywords(
        sfa in sfa_strategy(),
        word in "[a-z0-9]{1,4}",
    ) {
        let q = Query::keyword(&word).unwrap();
        let mut scratch = ScanScratch::new();
        assert_blob_identity(&q, &codec::encode(&sfa), &mut scratch);
        let blob = codec::encode(&approximate(&sfa, StaccatoParams::new(4, 3)));
        assert_blob_identity(&q, &blob, &mut scratch);
    }

    // LIKE queries compile to exact-match DFAs with a different literal
    // derivation (leading `%` stripped first).
    #[test]
    fn kernel_like_eval_is_bit_identical(
        sfa in sfa_strategy(),
        word in "[a-z0-9]{1,3}",
        contains in any::<bool>(),
    ) {
        let pattern = if contains { format!("%{word}%") } else { format!("{word}%") };
        let q = Query::like(&pattern).unwrap();
        let mut scratch = ScanScratch::new();
        assert_blob_identity(&q, &codec::encode(&sfa), &mut scratch);
    }

    // MAP / k-MAP: the kernel's string evaluators must reproduce
    // `eval_strings` exactly — the whole group sum and each
    // single-string evaluation.
    #[test]
    fn kernel_string_eval_is_bit_identical(
        raw in prop::collection::vec(("[a-z ]{0,12}", 1u32..1000), 0..8),
        pattern in pattern_strategy(),
        word in "[a-z]{1,3}",
        keyword in any::<bool>(),
    ) {
        let strings: Vec<(String, f64)> = raw
            .into_iter()
            .map(|(s, millis)| (s, millis as f64 / 1000.0))
            .collect();
        let q = if keyword { Query::keyword(&word) } else { Query::regex(&pattern) }.unwrap();
        let naive = eval_strings(&q.dfa, strings.iter().map(|(s, p)| (s.as_str(), *p)));
        let group = q.kernel.eval_string_group(strings.iter().map(|(s, p)| (s.as_str(), *p)));
        assert_eq!(group.probability.to_bits(), naive.to_bits());
        if group.prescreened {
            assert_eq!(naive, 0.0);
        }
        for (s, p) in &strings {
            let single = q.kernel.eval_string(s, *p);
            let naive = eval_strings(&q.dfa, std::iter::once((s.as_str(), *p)));
            assert_eq!(
                single.probability.to_bits(),
                naive.to_bits(),
                "string {:?} under {:?}",
                s,
                q.pattern
            );
        }
    }
}

/// Real OCR output instead of generated graphs: a CongressActs store
/// loaded once with the compact channel and small (m, k) the benchmarks
/// use and once with the default options, every FullSFA and Staccato row
/// evaluated under the Table 6 queries plus a `LIKE`, kernel against the
/// naive DP over the allocating decode.
#[test]
fn kernel_is_bit_identical_on_real_corpus_rows() {
    let data = generate(CorpusKind::CongressActs, 120, 42);
    let compact = LoadOptions {
        channel: ChannelConfig::compact(42),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    let mut queries: Vec<Query> = table6_queries(CorpusKind::CongressActs)
        .iter()
        .map(|spec| {
            if spec.keyword {
                Query::keyword(spec.pattern)
            } else {
                Query::regex(spec.pattern)
            }
            .unwrap()
        })
        .collect();
    queries.push(Query::like("%Public Law%").unwrap());
    for opts in [compact, LoadOptions::default()] {
        let store = OcrStore::load(Database::in_memory(4096).unwrap(), &data, &opts).unwrap();
        let mut scratch = ScanScratch::new();
        let (mut rows, mut skipped) = (0usize, 0usize);
        let mut check = |_key: i64, blob: &[u8]| {
            let sfa = codec::decode(blob).unwrap();
            for q in &queries {
                let naive = eval_sfa(&q.dfa, &sfa);
                let out = q.kernel.eval_blob(&mut scratch, blob).unwrap();
                assert_eq!(
                    out.probability.to_bits(),
                    naive.to_bits(),
                    "{:?} (staccato {:?}): kernel={} naive={}",
                    q.pattern,
                    opts.staccato,
                    out.probability,
                    naive
                );
                if out.prescreened {
                    assert_eq!(
                        naive, 0.0,
                        "{:?}: prescreen skipped a row with mass",
                        q.pattern
                    );
                    skipped += 1;
                }
                rows += 1;
            }
            Ok(())
        };
        store.for_each_full_sfa_blob(&mut check).unwrap();
        store.for_each_staccato_blob(&mut check).unwrap();
        assert_eq!(rows, 2 * 120 * queries.len());
        assert!(
            skipped > 0 && skipped < rows,
            "{skipped} of {rows} rows prescreened"
        );
    }
}
