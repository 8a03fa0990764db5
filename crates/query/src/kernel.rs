//! The compiled scan kernel: per-query machinery that replaces the naive
//! per-row evaluation loop on the filescan hot path.
//!
//! [`crate::eval::eval_sfa`] is the reference semantics — a forward DP
//! over `(SFA node, DFA state)` pairs — but its inner loop re-walks every
//! emission label through the DFA once *per live DFA state per row*, and
//! every row pays a fresh `Sfa` decode (nodes, adjacency `Vec`s, one
//! `String` per label). [`ScanKernel`] + [`ScanScratch`] keep the
//! semantics and drop the per-row work:
//!
//! * **Dense DFA** — the query automaton is compiled once into a
//!   byte-class-compressed [`DenseDfa`] table (see
//!   `staccato_automata::dense`).
//! * **Compiled label transitions** — the DP's `dfa.run_from(s, label)`
//!   is computed for all live states of a node at once: a one-byte label
//!   (every FullSFA emission) steps each state through the byte-class
//!   table ([`DenseDfa::next`]), a longer one is walked in place by the
//!   convergence-aware set walks ([`DenseDfa::advance_states`],
//!   [`DenseDfa::advance_mask`]). Nothing is memoized across rows.
//! * **Arena batch decode** — blobs decode into a reusable
//!   [`DecodeArena`] (borrowed labels, CSR adjacency, recycled buffers,
//!   and a map of the label bytes present); the DP's state vectors are
//!   pooled and reused across rows.
//! * **Two-tier prescreen** — rows that provably cannot match are skipped
//!   before the full DP: tier 1 is a byte-presence test for the pattern's
//!   required literal (four word-ANDs against the decode's
//!   [`DecodeArena::label_bytes`]; substring containment for MAP/k-MAP
//!   strings), tier 2 a bitset reachability DP over `(node, DFA-state
//!   set)` using the same label transitions. Both tiers only ever skip rows
//!   whose exact probability is `+0.0`, so results stay **bit-identical**
//!   to the naive path (see the soundness notes on [`ScanKernel::eval_blob`]).
//!
//! Every floating-point operation of the reference implementation is
//! replicated in the same order — same topological order (the arena
//! reproduces `Sfa::try_topo_order`'s tie-breaking), same edge and
//! emission order, same `dst[s2] += mass * prob` accumulation, same final
//! summation — so `f64::to_bits` equality with [`crate::eval::eval_sfa`]
//! / [`crate::eval::eval_strings`] holds on every row, which the
//! differential proptests in `tests/kernel.rs` enforce.

use staccato_automata::{DenseDfa, Dfa};
use staccato_sfa::{codec, DecodeArena, SfaError};

/// Result of evaluating one line through the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// Match probability — bit-identical to the naive evaluation.
    pub probability: f64,
    /// Whether the prescreen rejected the line without running the full
    /// DP (the probability is then the exact zero — sign included — the
    /// naive evaluation would have produced).
    pub prescreened: bool,
}

/// Per-query compiled scan state: the dense DFA, the required literal for
/// the prescreen, and the accepting-state mask for the bitset tier.
/// Immutable after construction and shared by every scan worker; all
/// mutable state lives in [`ScanScratch`].
#[derive(Debug)]
pub struct ScanKernel {
    dense: DenseDfa,
    /// Required literal: every accepted line contains it (case-sensitive).
    literal: Option<String>,
    /// The literal's distinct bytes as a 256-bit map, for the tier-1
    /// byte-presence test against [`DecodeArena::label_bytes`].
    literal_bitmap: [u64; 4],
    /// Bit per accepting DFA state; `None` when `q > 64` (tier 2 disabled).
    accept_mask: Option<u64>,
    /// What `eval_strings` returns when nothing is accepted: the empty
    /// `f64` sum. Its sign is a property of the standard library's fold
    /// identity, so it is captured here rather than assumed, keeping
    /// prescreen skips bit-identical.
    string_zero: f64,
    /// What `eval_sfa` returns when no mass reaches an accepting state:
    /// the sum of one `+0.0` per accepting DFA state over the same fold.
    blob_zero: f64,
}

impl ScanKernel {
    /// Compile the kernel for a query DFA. `literal` must be a string
    /// every accepted line provably contains (see
    /// `staccato_automata::required_literal`); pass `None` to disable the
    /// tier-1 prescreen.
    pub fn new(dfa: &Dfa, literal: Option<String>) -> ScanKernel {
        let dense = DenseDfa::new(dfa);
        let q = dense.state_count();
        let accept_mask = (q <= 64).then(|| {
            (0..q as u32)
                .filter(|&s| dense.is_accept(s))
                .fold(0u64, |m, s| m | 1u64 << s)
        });
        let mut literal_bitmap = [0u64; 4];
        for &b in literal.as_deref().unwrap_or_default().as_bytes() {
            literal_bitmap[(b >> 6) as usize] |= 1u64 << (b & 63);
        }
        let string_zero: f64 = std::iter::empty::<f64>().sum();
        let blob_zero: f64 = (0..q as u32)
            .filter(|&s| dense.is_accept(s))
            .map(|_| 0.0f64)
            .sum();
        ScanKernel {
            dense,
            literal,
            literal_bitmap,
            accept_mask,
            string_zero,
            blob_zero,
        }
    }

    /// The compiled dense automaton.
    pub fn dense(&self) -> &DenseDfa {
        &self.dense
    }

    /// The prescreen literal, if the pattern has one.
    pub fn literal(&self) -> Option<&str> {
        self.literal.as_deref()
    }

    /// Evaluate one MAP string. Equivalent to
    /// `eval_strings(dfa, once((s, p)))`: `p` if the string is accepted,
    /// `+0.0` otherwise. The prescreen skips the DFA run when the
    /// required literal is absent — the DFA could only reject.
    pub fn eval_string(&self, s: &str, p: f64) -> EvalOutcome {
        if let Some(lit) = &self.literal {
            if !s.contains(lit.as_str()) {
                // No literal ⇒ the DFA would reject ⇒ the naive sum is
                // its empty-fold identity.
                return EvalOutcome {
                    probability: self.string_zero,
                    prescreened: true,
                };
            }
        }
        EvalOutcome {
            probability: if self.dense.matches(s.as_bytes()) {
                self.string_zero + p
            } else {
                self.string_zero
            },
            prescreened: false,
        }
    }

    /// Evaluate a k-MAP group: the sum of `p` over accepted strings, in
    /// iteration order — the accumulation [`crate::eval::eval_strings`]
    /// performs. `prescreened` is true when every string (of a non-empty
    /// group) was rejected by the literal test alone.
    pub fn eval_string_group<'a, I>(&self, strings: I) -> EvalOutcome
    where
        I: IntoIterator<Item = (&'a str, f64)>,
    {
        let mut group = self.string_group();
        for (s, p) in strings {
            group.push(s, p);
        }
        group.finish()
    }

    /// An empty k-MAP group to fold a line's strings into one at a time
    /// (see [`StringGroup`]); scans fold rows straight off the page.
    pub(crate) fn string_group(&self) -> StringGroup<'_> {
        StringGroup {
            kernel: self,
            total: self.string_zero,
            seen: 0,
            skipped: 0,
        }
    }

    /// Evaluate an encoded SFA blob: decode into the scratch arena, run
    /// the two-tier prescreen, then (on any hit) the exact DP.
    ///
    /// **Prescreen soundness** — a skip is taken only when the naive DP
    /// provably returns exactly `+0.0`:
    ///
    /// * *Tier 1 (byte presence)*: every string the SFA can emit draws
    ///   its bytes from the union of all emission labels. An accepted
    ///   string contains the required literal, hence every distinct byte
    ///   of it. If some literal byte appears in no label, no emitted
    ///   string is accepted, so no mass ever reaches an accepting DFA
    ///   state at the finish node — the naive sum is a sum of never-
    ///   written `+0.0` entries.
    /// * *Tier 2 (bitset reachability)*: an over-approximation of the
    ///   exact DP's support. `bits[v]` ⊇ {DFA states reachable at node
    ///   `v` along any path whose emissions all have `prob > 0`} — the
    ///   only (node, state) pairs the DP can write to, regardless of
    ///   floating-point underflow (underflow loses a *skip*, never
    ///   soundness). If no accepting state is reachable at the finish
    ///   node, the accepting entries of the finish vector are never
    ///   written and the naive result is again exactly `+0.0`.
    pub fn eval_blob(
        &self,
        scratch: &mut ScanScratch,
        blob: &[u8],
    ) -> Result<EvalOutcome, SfaError> {
        let ScanScratch {
            arena,
            bits,
            pairs,
            dests,
            vectors,
            free,
        } = scratch;
        codec::decode_into_arena(blob, arena)?;

        // Tier 1: every distinct literal byte must occur in some label.
        // The decode already recorded the label bytes; an empty literal
        // map never skips.
        let present = arena.label_bytes();
        if (0..4).any(|w| self.literal_bitmap[w] & !present[w] != 0) {
            return Ok(EvalOutcome {
                probability: self.blob_zero,
                prescreened: true,
            });
        }

        // Tier 2: bitset reachability over (node, DFA-state set). The
        // pass exists only to *prove absence*; the moment an accepting
        // state becomes reachable anywhere the proof is lost, so bail to
        // the exact DP rather than finish the walk (the DP is the
        // reference computation, so running it is always bit-identical —
        // tier-2 thresholds affect cost, never results).
        if let Some(mask) = self.accept_mask {
            let n = arena.node_count() as usize;
            bits.clear();
            bits.resize(n, 0);
            bits[arena.start() as usize] = 1u64 << self.dense.start();
            let mut accept_seen = false;
            'tier2: for &v in arena.topo() {
                let bv = bits[v as usize];
                if bv == 0 {
                    continue;
                }
                for &eid in arena.out_edges(v) {
                    let e = arena.edges()[eid as usize];
                    let mut out_bits = 0u64;
                    for em in &arena.emissions()[e.em_start as usize..e.em_end as usize] {
                        if em.prob <= 0.0 {
                            continue;
                        }
                        match &blob[em.label_range()] {
                            &[b] => {
                                let mut rem = bv;
                                while rem != 0 {
                                    let s = rem.trailing_zeros();
                                    rem &= rem - 1;
                                    out_bits |= 1u64 << self.dense.next(s, b);
                                }
                            }
                            label => out_bits |= self.dense.advance_mask(bv, label),
                        }
                    }
                    if out_bits & mask != 0 {
                        accept_seen = true;
                        break 'tier2;
                    }
                    bits[e.to as usize] |= out_bits;
                }
            }
            if !accept_seen && bits[arena.finish() as usize] & mask == 0 {
                return Ok(EvalOutcome {
                    probability: self.blob_zero,
                    prescreened: true,
                });
            }
        }

        // Exact DP — the loop of `eval_sfa`, with the per-state label
        // walks shared across the node's live states and state vectors
        // drawn from a pool instead of allocated per row.
        let q = self.dense.state_count();
        let n = arena.node_count() as usize;
        if vectors.len() < n {
            vectors.resize_with(n, Vec::new);
        }
        let mut start_vec = free.pop().unwrap_or_default();
        start_vec.clear();
        start_vec.resize(q, 0.0);
        start_vec[self.dense.start() as usize] = 1.0;
        vectors[arena.start() as usize] = start_vec;

        for &v in arena.topo() {
            if vectors[v as usize].is_empty() {
                continue;
            }
            let src = std::mem::take(&mut vectors[v as usize]);
            // The massy sources are fixed for the whole node, so collect
            // them once instead of rescanning the q-length vector for
            // every emission on every out edge.
            pairs.clear();
            for (s, &mass) in src.iter().enumerate() {
                if mass != 0.0 {
                    pairs.push((s as u32, mass));
                }
            }
            if !pairs.is_empty() {
                for &eid in arena.out_edges(v) {
                    let e = arena.edges()[eid as usize];
                    for em in &arena.emissions()[e.em_start as usize..e.em_end as usize] {
                        if em.prob <= 0.0 {
                            continue;
                        }
                        // Destinations first: a one-byte label steps each
                        // source through the byte-class table, a longer
                        // one shares a convergence-aware walk — both are
                        // `run_from(s, label)` per source. The
                        // accumulation below then runs in the reference
                        // order (ascending source state).
                        dests.clear();
                        dests.extend(pairs.iter().map(|&(s, _)| s));
                        match &blob[em.label_range()] {
                            &[b] => {
                                for d in dests.iter_mut() {
                                    *d = self.dense.next(*d, b);
                                }
                            }
                            label => self.dense.advance_states(dests, label),
                        }
                        let dst = &mut vectors[e.to as usize];
                        if dst.is_empty() {
                            let mut fresh = free.pop().unwrap_or_default();
                            fresh.clear();
                            fresh.resize(q, 0.0);
                            *dst = fresh;
                        }
                        for (&(_, mass), &d) in pairs.iter().zip(dests.iter()) {
                            dst[d as usize] += mass * em.prob;
                        }
                    }
                }
            }
            if v == arena.finish() {
                vectors[v as usize] = src;
            } else {
                free.push(src);
            }
        }

        let fin = &vectors[arena.finish() as usize];
        let probability: f64 = (0..q)
            .filter(|&s| self.dense.is_accept(s as u32))
            .map(|s| fin.get(s).copied().unwrap_or(0.0))
            .sum();

        // Recycle every vector touched this row.
        for slot in vectors[..n].iter_mut() {
            if !slot.is_empty() {
                free.push(std::mem::take(slot));
            }
        }
        Ok(EvalOutcome {
            probability,
            prescreened: false,
        })
    }
}

/// A k-MAP line's evaluation in progress: the running left fold
/// `string_zero + p₁ + p₂ …` over the accepted strings, in the order they
/// are pushed — so folding a line's rows one by one is bit-identical to
/// [`ScanKernel::eval_string_group`] over the same rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StringGroup<'k> {
    kernel: &'k ScanKernel,
    total: f64,
    seen: usize,
    skipped: usize,
}

impl StringGroup<'_> {
    /// Fold in one string with probability `p`.
    pub(crate) fn push(&mut self, s: &str, p: f64) {
        self.seen += 1;
        if let Some(lit) = &self.kernel.literal {
            if !s.contains(lit.as_str()) {
                self.skipped += 1;
                return;
            }
        }
        if self.kernel.dense.matches(s.as_bytes()) {
            self.total += p;
        }
    }

    /// The line's outcome: `prescreened` when every string (of a
    /// non-empty group) was rejected by the literal test alone.
    pub(crate) fn finish(self) -> EvalOutcome {
        EvalOutcome {
            probability: self.total,
            prescreened: self.seen > 0 && self.skipped == self.seen,
        }
    }
}

/// Per-worker mutable scan state: the decode arena and pooled DP
/// buffers. Holds nothing that outlives a row, so one scratch can serve
/// any kernel. One per scan thread; never shared.
#[derive(Debug, Default)]
pub struct ScanScratch {
    arena: DecodeArena,
    /// Tier-2 per-node DFA-state bitsets.
    bits: Vec<u64>,
    /// Per-node massy `(state, mass)` sources for the DP inner loop.
    pairs: Vec<(u32, f64)>,
    /// Per-emission destination states, parallel to `pairs`.
    dests: Vec<u32>,
    /// DP state vectors, indexed by node slot.
    vectors: Vec<Vec<f64>>,
    /// Pool of spent state vectors.
    free: Vec<Vec<f64>>,
}

impl ScanScratch {
    /// Fresh scratch. Buffers grow to the working set of the scan and are
    /// reused row to row.
    pub fn new() -> ScanScratch {
        ScanScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_sfa, eval_strings};
    use crate::query::Query;
    use staccato_sfa::{Emission, Sfa, SfaBuilder};

    fn figure1() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node()).collect();
        b.add_edge(
            n[0],
            n[1],
            vec![Emission::new("F", 0.8), Emission::new("T", 0.2)],
        );
        b.add_edge(
            n[1],
            n[2],
            vec![Emission::new("0", 0.6), Emission::new("o", 0.4)],
        );
        b.add_edge(n[2], n[3], vec![Emission::new(" ", 0.6)]);
        b.add_edge(n[2], n[4], vec![Emission::new("r", 0.4)]);
        b.add_edge(
            n[3],
            n[4],
            vec![Emission::new("r", 0.8), Emission::new("m", 0.2)],
        );
        b.add_edge(
            n[4],
            n[5],
            vec![Emission::new("d", 0.9), Emission::new("3", 0.1)],
        );
        b.build(n[0], n[5]).unwrap()
    }

    #[test]
    fn blob_eval_is_bit_identical_to_naive() {
        let sfa = figure1();
        let blob = codec::encode(&sfa);
        let mut scratch = ScanScratch::new();
        for pattern in ["Ford", "F0", "rd", "m3", "zzz", "o", " ", "xyzzy"] {
            let q = Query::keyword(pattern).unwrap();
            let naive = eval_sfa(&q.dfa, &codec::decode(&blob).unwrap());
            let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
            assert_eq!(
                out.probability.to_bits(),
                naive.to_bits(),
                "pattern {pattern:?}: kernel={} naive={}",
                out.probability,
                naive
            );
        }
    }

    #[test]
    fn prescreen_skips_only_zero_probability_rows() {
        let sfa = figure1();
        let blob = codec::encode(&sfa);
        let mut scratch = ScanScratch::new();
        // 'xyzzy' shares no bytes with the SFA: tier-1 skip.
        let q = Query::keyword("xyzzy").unwrap();
        let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
        assert!(out.prescreened);
        assert_eq!(out.probability.to_bits(), 0.0f64.to_bits());
        assert_eq!(eval_sfa(&q.dfa, &codec::decode(&blob).unwrap()), 0.0);
        // 'dF' uses present bytes but is unreachable in order: tier-2 skip.
        let q = Query::keyword("dF").unwrap();
        let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
        assert!(out.prescreened, "tier-2 should reject 'dF'");
        assert_eq!(eval_sfa(&q.dfa, &codec::decode(&blob).unwrap()), 0.0);
        // A hit is never prescreened.
        let q = Query::keyword("Ford").unwrap();
        let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
        assert!(!out.prescreened && out.probability > 0.0);
    }

    #[test]
    fn string_eval_matches_eval_strings() {
        let q = Query::keyword("Ford").unwrap();
        let strings = [("a Ford here", 0.25), ("no match", 0.5), ("Ford Ford", 0.1)];
        let naive = eval_strings(&q.dfa, strings.iter().map(|(s, p)| (*s, *p)));
        let out = q
            .kernel
            .eval_string_group(strings.iter().map(|(s, p)| (*s, *p)));
        assert_eq!(out.probability.to_bits(), naive.to_bits());
        for (s, p) in strings {
            let single = q.kernel.eval_string(s, p);
            let naive = eval_strings(&q.dfa, std::iter::once((s, p)));
            assert_eq!(single.probability.to_bits(), naive.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_rows() {
        let blob1 = codec::encode(&figure1());
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(s, f, vec![Emission::new("Ford", 1.0)]);
        let blob2 = codec::encode(&b.build(s, f).unwrap());
        let q = Query::keyword("Ford").unwrap();
        let mut scratch = ScanScratch::new();
        let mut fresh = ScanScratch::new();
        for blob in [&blob1, &blob2, &blob1, &blob2, &blob1] {
            let reused = q.kernel.eval_blob(&mut scratch, blob).unwrap();
            let cold = q.kernel.eval_blob(&mut fresh, blob).unwrap();
            assert_eq!(reused.probability.to_bits(), cold.probability.to_bits());
            fresh = ScanScratch::new();
        }
    }
}
