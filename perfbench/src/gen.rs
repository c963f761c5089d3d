//! Seeded input generators: statement streams for the serve workloads and
//! `(k, p)` queries for the paged scan. Every function here is a pure
//! function of its arguments, so one seed always yields byte-identical
//! inputs.
//!
//! Parameters are drawn as Latin-hypercube strata (each block of draws
//! covers its range evenly, in a seeded order) rather than independently,
//! so different seeds produce different statements with nearly the same
//! cost distribution — which keeps run-to-run spread low.

use std::collections::HashSet;

use ptk_core::rng::{RngExt, SeedableRng, StdRng};

/// The three request types the end-to-end metrics split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A single `SELECT TOP … WITH PROBABILITY` statement (pruned PT-k).
    Ptk,
    /// A single `RANK BY` statement (the unpruned generating-function scan).
    RankBy,
    /// A `;`-batch of PT-k statements (the batch executor).
    Batch,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Ptk => "ptk",
            Kind::RankBy => "rankby",
            Kind::Batch => "batch",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub kind: Kind,
    pub text: String,
}

/// Ranges the statement generators draw from.
#[derive(Debug, Clone, Copy)]
pub struct Ranges {
    /// Tuples in the served table; `WHERE score >= x` draws `x` from its
    /// top quarter of scores so predicates keep most of the table.
    pub tuples: usize,
    /// PT-k `k` range.
    pub ptk_k: (usize, usize),
    /// `k` range of `GLOBAL_TOPK`, `U_KRANKS` and `EXPECTED_RANK`.
    pub rank_k: (usize, usize),
    /// `k` range of `U_TOPK` (small, to stay under its state cap).
    pub utopk_k: (usize, usize),
}

/// Per-block shares of the mixed stream: 7 PT-k, 2 `RANK BY`, 1 batch. The
/// shares are assumed, not measured: no sample of real `ptk serve` traffic
/// exists yet to draw them from.
const MIX: [Kind; 10] = [
    Kind::Ptk,
    Kind::Ptk,
    Kind::Ptk,
    Kind::Ptk,
    Kind::Ptk,
    Kind::Ptk,
    Kind::Ptk,
    Kind::RankBy,
    Kind::RankBy,
    Kind::Batch,
];

const SEMANTICS: [&str; 4] = ["GLOBAL_TOPK", "U_KRANKS", "EXPECTED_RANK", "U_TOPK"];

/// Stratified draws: `n` values in `[lo, hi)`, one per equal-width stratum,
/// in a seeded order.
fn strata(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    let mut out: Vec<f64> = (0..n)
        .map(|i| lo + (i as f64 + rng.random_range(0.0..1.0f64)) * width)
        .collect();
    rng.shuffle(&mut out);
    out
}

/// An endless source of stratified parameters, refilled block by block.
struct Strata {
    lo: f64,
    hi: f64,
    pending: Vec<f64>,
}

impl Strata {
    const BLOCK: usize = 64;

    fn new(lo: f64, hi: f64) -> Strata {
        Strata {
            lo,
            hi,
            pending: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> f64 {
        if self.pending.is_empty() {
            self.pending = strata(rng, Self::BLOCK, self.lo, self.hi);
        }
        self.pending.pop().expect("refilled above")
    }

    fn next_int(&mut self, rng: &mut StdRng) -> usize {
        self.next(rng).floor() as usize
    }
}

/// Statement source shared by the mixed stream and the hot set.
struct StmtSource {
    rng: StdRng,
    ptk_k: Strata,
    p: Strata,
    rank_k: Strata,
    utopk_k: Strata,
    cut: Strata,
    seen: HashSet<String>,
}

impl StmtSource {
    fn new(seed: u64, ranges: Ranges) -> StmtSource {
        let top = ranges.tuples as f64;
        StmtSource {
            rng: StdRng::seed_from_u64(seed),
            ptk_k: Strata::new(ranges.ptk_k.0 as f64, ranges.ptk_k.1 as f64 + 1.0),
            p: Strata::new(0.1, 0.9),
            rank_k: Strata::new(ranges.rank_k.0 as f64, ranges.rank_k.1 as f64 + 1.0),
            utopk_k: Strata::new(ranges.utopk_k.0 as f64, ranges.utopk_k.1 as f64 + 1.0),
            cut: Strata::new(1.0, top / 4.0),
            seen: HashSet::new(),
        }
    }

    /// `WHERE score >= x` on about a third of the statements (always when
    /// `force`), else nothing.
    fn predicate(&mut self, force: bool) -> String {
        if force || self.rng.random_range(0..3u32) == 0 {
            format!(" WHERE score >= {}", self.cut.next_int(&mut self.rng))
        } else {
            String::new()
        }
    }

    fn ptk_body(&mut self, predicate: &str) -> String {
        let k = self.ptk_k.next_int(&mut self.rng);
        let p = self.p.next(&mut self.rng);
        format!("SELECT TOP {k} FROM t{predicate} ORDER BY score DESC WITH PROBABILITY >= {p:.3}")
    }

    fn one(&mut self, kind: Kind, semantics: usize) -> Stmt {
        let text = match kind {
            Kind::Ptk => {
                let predicate = self.predicate(false);
                self.ptk_body(&predicate)
            }
            Kind::RankBy => {
                let name = SEMANTICS[semantics % SEMANTICS.len()];
                // U_TOPK has only a handful of legal k values, so it always
                // carries a predicate to keep its statements distinct.
                let (k, predicate) = if name == "U_TOPK" {
                    (self.utopk_k.next_int(&mut self.rng), self.predicate(true))
                } else {
                    (self.rank_k.next_int(&mut self.rng), self.predicate(false))
                };
                format!("SELECT TOP {k} FROM t{predicate} ORDER BY score DESC RANK BY {name}")
            }
            Kind::Batch => {
                let predicate = self.predicate(false);
                let n = self.rng.random_range(2..5usize);
                (0..n)
                    .map(|_| self.ptk_body(&predicate))
                    .collect::<Vec<_>>()
                    .join("; ")
            }
        };
        Stmt { kind, text }
    }

    /// A statement of `kind` whose text has not been produced before.
    fn distinct(&mut self, kind: Kind, semantics: usize) -> Stmt {
        loop {
            let stmt = self.one(kind, semantics);
            if self.seen.insert(stmt.text.clone()) {
                return stmt;
            }
        }
    }
}

/// The `serve-mixed` stream: `count` pairwise-distinct statements in the
/// fixed 7:2:1 PT-k / `RANK BY` / batch shares, each block of ten shuffled,
/// the `RANK BY` semantics rotating through all four.
pub fn mixed_stream(seed: u64, ranges: Ranges, count: usize) -> Vec<Stmt> {
    let mut b = StmtSource::new(seed, ranges);
    let mut out = Vec::with_capacity(count);
    let mut semantics = 0usize;
    while out.len() < count {
        let mut block = MIX;
        b.rng.shuffle(&mut block);
        for kind in block {
            if kind == Kind::RankBy {
                semantics += 1;
            }
            out.push(b.distinct(kind, semantics));
        }
    }
    out.truncate(count);
    out
}

/// The `serve-hot` set: `ptk` single PT-k statements, one `RANK BY` per
/// semantics (two for `GLOBAL_TOPK` and `U_KRANKS`), and `batches`
/// batches — all distinct.
pub fn hot_set(seed: u64, ranges: Ranges, ptk: usize, batches: usize) -> Vec<Stmt> {
    let mut b = StmtSource::new(seed, ranges);
    let mut out: Vec<Stmt> = (0..ptk).map(|_| b.distinct(Kind::Ptk, 0)).collect();
    for semantics in [0, 1, 2, 3, 0, 1] {
        out.push(b.distinct(Kind::RankBy, semantics));
    }
    out.extend((0..batches).map(|_| b.distinct(Kind::Batch, 0)));
    out
}

/// A seeded replay order over a set of `len` items: `count` indices made
/// of back-to-back seeded permutations, so every item recurs evenly.
pub fn replay_order(seed: u64, len: usize, count: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut pass: Vec<u32> = (0..len as u32).collect();
    while out.len() < count {
        rng.shuffle(&mut pass);
        out.extend_from_slice(&pass);
    }
    out.truncate(count);
    out
}

/// `count` distinct PT-k `(k, p)` queries for the paged scan, `k`
/// stratified over `k_range` and `p` over `[0.1, 0.9)`.
pub fn scan_queries(seed: u64, k_range: (usize, usize), count: usize) -> Vec<(usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ks = Strata::new(k_range.0 as f64, k_range.1 as f64 + 1.0);
    let mut ps = Strata::new(0.1, 0.9);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let k = ks.next_int(&mut rng);
        // Three decimals, as the served statements print them.
        let p = (ps.next(&mut rng) * 1000.0).round() / 1000.0;
        if seen.insert((k, p.to_bits())) {
            out.push((k, p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANGES: Ranges = Ranges {
        tuples: 20_000,
        ptk_k: (20, 400),
        rank_k: (10, 200),
        utopk_k: (2, 10),
    };

    fn bytes(stream: &[Stmt]) -> String {
        stream
            .iter()
            .map(|s| format!("{}|{}\n", s.kind.label(), s.text))
            .collect()
    }

    #[test]
    fn mixed_stream_is_a_pure_function_of_the_seed() {
        let a = mixed_stream(7, RANGES, 2_000);
        let b = mixed_stream(7, RANGES, 2_000);
        assert_eq!(bytes(&a), bytes(&b), "same seed, same bytes");
        let c = mixed_stream(8, RANGES, 2_000);
        assert_ne!(bytes(&a), bytes(&c), "another seed, another stream");
    }

    #[test]
    fn mixed_stream_is_distinct_and_keeps_its_shares() {
        let stream = mixed_stream(3, RANGES, 5_000);
        let distinct: HashSet<&str> = stream.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(distinct.len(), stream.len());
        let count = |k: Kind| stream.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(Kind::Ptk), 3_500);
        assert_eq!(count(Kind::RankBy), 1_000);
        assert_eq!(count(Kind::Batch), 500);
        for s in &stream {
            ptk_sql::parse_statement(s.text.split(';').next().unwrap()).expect("statements parse");
        }
    }

    #[test]
    fn hot_set_and_replay_order_are_pure_functions_of_the_seed() {
        let a = hot_set(5, RANGES, 14, 4);
        assert_eq!(bytes(&a), bytes(&hot_set(5, RANGES, 14, 4)));
        assert_ne!(bytes(&a), bytes(&hot_set(6, RANGES, 14, 4)));
        assert_eq!(a.len(), 24);
        let order = replay_order(5, a.len(), 240);
        assert_eq!(order, replay_order(5, a.len(), 240));
        assert_ne!(order, replay_order(6, a.len(), 240));
        for item in 0..a.len() as u32 {
            assert_eq!(order.iter().filter(|&&i| i == item).count(), 10);
        }
    }

    #[test]
    fn scan_queries_are_a_pure_function_of_the_seed() {
        let a = scan_queries(9, (60, 400), 128);
        assert_eq!(a, scan_queries(9, (60, 400), 128));
        assert_ne!(a, scan_queries(10, (60, 400), 128));
        assert!(a
            .iter()
            .all(|&(k, p)| (60..=400).contains(&k) && (0.1..=0.9).contains(&p)));
    }
}
