//! Seeded inputs: the corpus, the request sequence and the arrival
//! schedule. Everything here is a pure function of the workload seed, so
//! a seed names one exact run of inputs.

use std::collections::HashSet;

use cb_kv::chunk::hash_tokens;
use cb_kv::ChunkId;
use cb_rag::datasets::{Dataset, DatasetKind};
use cb_tokenizer::TokenId;

/// SplitMix64: a small, stable generator for the benchmark's own draws.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Fewest and most chunks a request retrieves.
pub const TOP_K: (usize, usize) = (3, 12);

/// Tokens a request may decode. Answers stop at the first non-value
/// token, so most end well before this.
pub const MAX_NEW_TOKENS: usize = 8;

/// One generated request: everything the program receives plus what the
/// benchmark keeps to check the answer.
#[derive(Clone, Debug)]
pub struct GenRequest {
    /// Token streams of the retrieved chunks, in context order.
    pub chunks: Vec<Vec<TokenId>>,
    /// Content ids of `chunks` (what the program is asked for).
    pub chunk_ids: Vec<ChunkId>,
    /// The query suffix.
    pub query: Vec<TokenId>,
    /// Dataset gold answer.
    pub gold: Vec<TokenId>,
    /// Dataset the case came from (selects the quality metric).
    pub kind: DatasetKind,
    /// Requests with equal keys are the same request.
    pub key: u64,
}

fn request_from(ds: &Dataset, case: usize, k: usize, key: u64) -> GenRequest {
    let c = &ds.cases[case];
    let chunks = ds.chunk_tokens(&ds.retrieve(c, k));
    GenRequest {
        chunk_ids: chunks.iter().map(|t| hash_tokens(t)).collect(),
        chunks,
        query: c.query.clone(),
        gold: c.gold.clone(),
        kind: ds.kind,
        key,
    }
}

/// A fixed corpus of the four datasets and its request pool; case
/// popularity is Zipf-distributed over a fixed ranking. The corpus does
/// not depend on the workload seed: the seed picks which requests arrive
/// and when, so runs with different seeds serve the same knowledge base
/// and differ only in the traffic.
pub struct Corpus {
    /// One dataset per kind.
    pub datasets: Vec<Dataset>,
    /// Every case as a request, in popularity-rank order.
    pub pool: Vec<GenRequest>,
    /// Cumulative Zipf weights over `pool`.
    cdf: Vec<f64>,
}

impl Corpus {
    /// Generates the corpus named by `seed` with Zipf exponent `zipf_s`.
    pub fn new(seed: u64, zipf_s: f64) -> Self {
        let datasets: Vec<Dataset> = DatasetKind::all()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Dataset::standard(kind, seed.wrapping_mul(31).wrapping_add(i as u64)))
            .collect();
        let mut rng = Rng::new(seed, 1);
        let mut pool = Vec::new();
        for ds in &datasets {
            for case in 0..ds.cases.len() {
                let k = rng.range(TOP_K.0, TOP_K.1);
                pool.push(request_from(ds, case, k, pool.len() as u64));
            }
        }
        // Seeded Fisher-Yates: popularity rank is independent of dataset.
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.range(0, i));
        }
        let mut acc = 0.0;
        let cdf = (0..pool.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(zipf_s);
                acc
            })
            .collect();
        Self {
            datasets,
            pool,
            cdf,
        }
    }

    /// Every chunk of the corpus (the set registered at set-up).
    pub fn chunks(&self) -> impl Iterator<Item = &Vec<TokenId>> {
        self.datasets.iter().flat_map(|d| d.chunks.iter())
    }

    /// Deals `n` requests whose mix follows the popularity weights as
    /// closely as whole counts allow, in random order. Systematic
    /// sampling: every case appears the floor or the ceiling of its
    /// expected count, and the seeded offset picks which tail cases make
    /// up the remainders. Independent draws would let the share of the
    /// head cases, and with it the median context length, swing by a
    /// third from seed to seed.
    pub fn deal(&self, n: usize, rng: &mut Rng) -> Vec<GenRequest> {
        let total = *self.cdf.last().expect("corpus has cases");
        let offset = rng.unit();
        let mut hand: Vec<GenRequest> = (0..n)
            .map(|j| {
                let x = (offset + j as f64) / n as f64 * total;
                let i = self
                    .cdf
                    .partition_point(|&c| c <= x)
                    .min(self.pool.len() - 1);
                self.pool[i].clone()
            })
            .collect();
        for i in (1..hand.len()).rev() {
            hand.swap(i, rng.range(0, i));
        }
        hand
    }
}

/// An endless request source for the closed loop: deals one pool's worth
/// of requests at a time (see [`Corpus::deal`]) and hands them out in
/// order.
pub struct Deck<'c> {
    corpus: &'c Corpus,
    rng: Rng,
    hand: Vec<GenRequest>,
}

impl<'c> Deck<'c> {
    /// A deck over `corpus`, shuffled by `rng`.
    pub fn new(corpus: &'c Corpus, rng: Rng) -> Self {
        Self {
            corpus,
            rng,
            hand: Vec::new(),
        }
    }

    /// The next request.
    pub fn next(&mut self) -> GenRequest {
        if self.hand.is_empty() {
            self.hand = self.corpus.deal(self.corpus.pool.len(), &mut self.rng);
        }
        self.hand.pop().expect("a dealt hand is not empty")
    }
}

/// Chunks for the ingest stream: documents nobody queries, in order.
/// Chunk ids are content hashes, so a chunk equal to one in `exclude` or
/// earlier in the stream is skipped: unregistering it would take away
/// content that is still live.
pub fn ingest_chunks(seed: u64, count: usize, exclude: &HashSet<ChunkId>) -> Vec<Vec<TokenId>> {
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(count);
    let mut n = 0u64;
    while out.len() < count {
        let kind = DatasetKind::all()[(n % 4) as usize];
        let ds = Dataset::standard(kind, seed.wrapping_mul(977).wrapping_add(1_000_003 + n));
        for chunk in ds.chunks {
            if out.len() < count && seen.insert(hash_tokens(&chunk)) {
                out.push(chunk);
            }
        }
        n += 1;
    }
    out
}

/// Poisson arrival offsets (seconds from phase start) at `rate` per second
/// over `[0, span_s)`.
pub fn poisson_schedule(seed: u64, rate: f64, span_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 2);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= span_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_an_identical_schedule_and_request_sequence() {
        let a = poisson_schedule(7, 40.0, 5.0);
        let b = poisson_schedule(7, 40.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 40.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(
            (a.len() as f64 - 200.0).abs() < 60.0,
            "{} arrivals",
            a.len()
        );

        let (ca, cb) = (Corpus::new(7, 1.0), Corpus::new(7, 1.0));
        let (x, y) = (
            ca.deal(50, &mut Rng::new(7, 3)),
            cb.deal(50, &mut Rng::new(7, 3)),
        );
        for (x, y) in x.iter().zip(&y) {
            assert_eq!(
                (x.key, &x.chunk_ids, &x.query),
                (y.key, &y.chunk_ids, &y.query)
            );
            assert!((TOP_K.0..=TOP_K.1).contains(&x.chunks.len()));
        }
        let (mut da, mut db) = (
            Deck::new(&ca, Rng::new(7, 4)),
            Deck::new(&cb, Rng::new(7, 4)),
        );
        for _ in 0..400 {
            assert_eq!(da.next().key, db.next().key);
        }
        let none = HashSet::new();
        let stream = ingest_chunks(7, 300, &none);
        assert_eq!(stream, ingest_chunks(7, 300, &none));
        let ids: HashSet<ChunkId> = stream.iter().map(|c| hash_tokens(c)).collect();
        assert_eq!(ids.len(), stream.len(), "ingest chunks are distinct");
        let first: HashSet<ChunkId> = ids.iter().copied().take(10).collect();
        assert!(ingest_chunks(7, 300, &first)
            .iter()
            .all(|c| !first.contains(&hash_tokens(c))));
    }

    #[test]
    fn a_dealt_mix_follows_the_zipf_weights() {
        let c = Corpus::new(3, 1.0);
        let total = *c.cdf.last().unwrap();
        for (seed, n) in [(1, 150), (2, 176), (3, 1000)] {
            let hand = c.deal(n, &mut Rng::new(seed, 1));
            assert_eq!(hand.len(), n);
            let mut prev = 0.0;
            for (rank, case) in c.pool.iter().enumerate() {
                let expected = (c.cdf[rank] - prev) / total * n as f64;
                prev = c.cdf[rank];
                let got = hand.iter().filter(|r| r.key == case.key).count() as f64;
                assert!(
                    got == expected.floor() || got == expected.ceil(),
                    "rank {rank}: {got} dealt, {expected:.2} expected"
                );
            }
        }
        // The seed decides the order and which tail cases fill the
        // remainders.
        let (a, b) = (
            c.deal(150, &mut Rng::new(1, 1)),
            c.deal(150, &mut Rng::new(2, 1)),
        );
        let keys = |h: &[GenRequest]| h.iter().map(|r| r.key).collect::<Vec<_>>();
        assert_ne!(keys(&a), keys(&b));
    }
}
