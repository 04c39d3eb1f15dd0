//! BChainBench data generation (§VII-A).
//!
//! "We implement a data generator to simulate real scenario from two
//! dimensions, including time dimension and the dimension of data
//! distribution in attributes. … This data generator supports uniform
//! and Gaussian distribution of transactions."
//!
//! Each experiment gets a [`TestBed`]: a ledger on a temporary store
//! holding `blocks × txs_per_block` transactions, the *hit* transactions
//! (those a query will return) placed across blocks per the selected
//! [`Placement`], plus the off-chain tables and the layered indexes
//! the workload needs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sebdb::{Executor, Ledger, SchemaManager};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_offchain::{OffchainConnection, OffchainDb};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Transaction, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// How hit transactions are spread over blocks.
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    /// Evenly across all blocks.
    Uniform,
    /// Normally around the middle block ("mean equals to the middle of
    /// block\[chain\] and variance set to 20", §VII-A).
    Gaussian {
        /// Standard deviation in blocks.
        std_blocks: f64,
    },
}

impl Placement {
    /// The paper's Gaussian setting.
    pub fn gaussian() -> Placement {
        Placement::Gaussian { std_blocks: 20.0 }
    }

    /// Short label used in figure output (U/G).
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Uniform => "U",
            Placement::Gaussian { .. } => "G",
        }
    }
}

/// Distributes `hits` over `blocks` buckets: returns hits-per-block.
pub fn place_hits(blocks: u64, hits: usize, placement: Placement, rng: &mut StdRng) -> Vec<usize> {
    let mut per_block = vec![0usize; blocks as usize];
    match placement {
        Placement::Uniform => {
            for i in 0..hits {
                per_block[i % blocks as usize] += 1;
            }
        }
        Placement::Gaussian { std_blocks } => {
            let mean = blocks as f64 / 2.0;
            for _ in 0..hits {
                // Box–Muller.
                let (u1, u2): (f64, f64) = (rng.gen_range(1e-9..1.0), rng.gen());
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let b = (mean + z * std_blocks)
                    .round()
                    .clamp(0.0, blocks as f64 - 1.0) as usize;
                per_block[b] += 1;
            }
        }
    }
    per_block
}

/// Benchmark amounts: filler donations fall in `[1, FILLER_MAX)` while
/// range-query hits live in the reserved `[HIT_LO, HIT_HI]` band, so
/// result sizes are exact.
pub const FILLER_MAX: i64 = 10_000;
/// Lower bound of the hit band (whole currency units).
pub const HIT_LO: i64 = 100_000;
/// Upper bound of the hit band.
pub const HIT_HI: i64 = 110_000;

/// The well-known benchmark operator (the paper's `org1`).
pub const ORG1: KeyId = KeyId([0xA1; 8]);

/// A populated single-node environment for read benchmarks (reads
/// don't need consensus — blocks are appended directly).
pub struct TestBed {
    /// The chain + indexes.
    pub ledger: Arc<Ledger>,
    /// Schema catalog.
    pub schemas: Arc<SchemaManager>,
    /// Off-chain database.
    pub offdb: Arc<OffchainDb>,
    /// Off-chain connection.
    pub conn: OffchainConnection,
    /// Named operators (org1, org2, …).
    pub orgs: HashMap<String, KeyId>,
    /// Expected result size of the experiment's target query.
    pub expected_hits: usize,
    next_tid: u64,
}

impl TestBed {
    fn empty() -> TestBed {
        let offdb = Arc::new(OffchainDb::new());
        crate::schema::create_offchain_tables(&offdb);
        let conn = offdb.connect();
        let schemas = Arc::new(SchemaManager::new(Some(conn.clone())));
        for s in crate::schema::onchain_schemas() {
            schemas.register(s).unwrap();
        }
        let ledger = Arc::new(
            Ledger::new(
                Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
                MacKeypair::from_key([0xBE; 32]),
            )
            .unwrap(),
        );
        let mut orgs = HashMap::new();
        orgs.insert("org1".to_string(), ORG1);
        for i in 2..=8u8 {
            orgs.insert(format!("org{i}"), KeyId([i; 8]));
        }
        TestBed {
            ledger,
            schemas,
            offdb,
            conn,
            orgs,
            expected_hits: 0,
            next_tid: 1,
        }
    }

    /// An executor over this bed.
    pub fn executor(&self) -> Executor<'_> {
        Executor::new(&self.ledger, Some(&self.conn))
    }

    /// Timestamp range of block `b`: txs get `b*1000 ..= b*1000+999`,
    /// the block itself `(b+1)*1000`.
    pub fn window_covering_blocks(lo: u64, hi: u64) -> (u64, u64) {
        (lo * 1000, hi * 1000 + 999)
    }

    fn tx(
        &mut self,
        block: u64,
        slot: usize,
        sender: KeyId,
        tname: &str,
        values: Vec<Value>,
    ) -> Transaction {
        let mut t = Transaction::new(block * 1000 + slot as u64, sender, tname, values);
        t.tid = self.next_tid;
        self.next_tid += 1;
        // Size stand-in for a real signature (32-byte MAC + tag byte).
        t.sig = vec![0u8; 33];
        t
    }

    fn append_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        let base = self.ledger.height();
        for (i, txs) in blocks.into_iter().enumerate() {
            let seq = base + i as u64;
            self.ledger
                .append_ordered(OrderedBlock {
                    seq,
                    timestamp_ms: (seq + 1) * 1000,
                    txs,
                })
                .unwrap();
        }
    }

    fn filler_tx(&mut self, block: u64, slot: usize, rng: &mut StdRng) -> Transaction {
        // Fillers rotate senders org2..org8 and the three tables.
        let sender = KeyId([2 + (rng.gen::<u8>() % 7); 8]);
        let amount = Value::decimal(rng.gen_range(1..FILLER_MAX));
        match rng.gen_range(0..3u8) {
            0 => self.tx(
                block,
                slot,
                sender,
                "donate",
                vec![
                    Value::str(format!("donor-{}", rng.gen_range(0..1000))),
                    Value::str("education"),
                    amount,
                ],
            ),
            1 => self.tx(
                block,
                slot,
                sender,
                "transfer",
                vec![
                    Value::str("education"),
                    Value::str(format!("donor-{}", rng.gen_range(0..1000))),
                    Value::str(format!("filler-org-{}", self.next_tid)),
                    amount,
                ],
            ),
            _ => self.tx(
                block,
                slot,
                sender,
                "distribute",
                vec![
                    Value::str("education"),
                    Value::str(format!("donor-{}", rng.gen_range(0..1000))),
                    Value::str(format!("filler-org-{}", self.next_tid)),
                    Value::str(format!("nobody-{}", self.next_tid)),
                    amount,
                ],
            ),
        }
    }
}

/// Bed for Q2 (one-dimension tracking): `hits` transactions sent by
/// `org1`, placed per `placement`, in a chain of `blocks ×
/// txs_per_block`.
pub fn tracking_bed(
    blocks: u64,
    txs_per_block: usize,
    hits: usize,
    placement: Placement,
    seed: u64,
) -> TestBed {
    let mut bed = TestBed::empty();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_block = place_hits(blocks, hits, placement, &mut rng);
    let mut chain = Vec::with_capacity(blocks as usize);
    for b in 0..blocks {
        let hit_count = per_block[b as usize];
        let mut txs = Vec::with_capacity(txs_per_block.max(hit_count));
        for slot in 0..hit_count {
            let amount = Value::decimal(rng.gen_range(1..FILLER_MAX));
            let t = bed.tx(
                b,
                slot,
                ORG1,
                "donate",
                vec![Value::str("org1-donor"), Value::str("education"), amount],
            );
            txs.push(t);
        }
        for slot in hit_count..txs_per_block.max(hit_count) {
            let t = bed.filler_tx(b, slot, &mut rng);
            txs.push(t);
        }
        chain.push(txs);
    }
    bed.append_blocks(chain);
    bed.expected_hits = hits;
    bed
}

/// Bed for Q3 (two-dimension tracking): `org1_total` org1 transactions
/// of which `overlap` are `transfer` (the results); additionally
/// `transfer_total - overlap` transfers from other senders.
pub fn tracking2_bed(
    blocks: u64,
    txs_per_block: usize,
    org1_total: usize,
    transfer_total: usize,
    overlap: usize,
    placement: Placement,
    seed: u64,
) -> TestBed {
    assert!(overlap <= org1_total && overlap <= transfer_total);
    let mut bed = TestBed::empty();
    let mut rng = StdRng::seed_from_u64(seed);
    let hits = place_hits(blocks, overlap, placement, &mut rng);
    let org1_only = place_hits(blocks, org1_total - overlap, placement, &mut rng);
    let transfer_only = place_hits(blocks, transfer_total - overlap, placement, &mut rng);
    let mut chain = Vec::with_capacity(blocks as usize);
    for b in 0..blocks {
        let mut txs = Vec::new();
        let mut slot = 0;
        for _ in 0..hits[b as usize] {
            let t = bed.tx(
                b,
                slot,
                ORG1,
                "transfer",
                vec![
                    Value::str("education"),
                    Value::str("donor"),
                    Value::str("school1"),
                    Value::decimal(rng.gen_range(1..FILLER_MAX)),
                ],
            );
            txs.push(t);
            slot += 1;
        }
        for _ in 0..org1_only[b as usize] {
            let t = bed.tx(
                b,
                slot,
                ORG1,
                "donate",
                vec![
                    Value::str("donor"),
                    Value::str("education"),
                    Value::decimal(rng.gen_range(1..FILLER_MAX)),
                ],
            );
            txs.push(t);
            slot += 1;
        }
        for _ in 0..transfer_only[b as usize] {
            let sender = KeyId([2 + (rng.gen::<u8>() % 7); 8]);
            let t = bed.tx(
                b,
                slot,
                sender,
                "transfer",
                vec![
                    Value::str("education"),
                    Value::str("donor"),
                    Value::str("school2"),
                    Value::decimal(rng.gen_range(1..FILLER_MAX)),
                ],
            );
            txs.push(t);
            slot += 1;
        }
        while slot < txs_per_block {
            let t = bed.filler_tx(b, slot, &mut rng);
            txs.push(t);
            slot += 1;
        }
        chain.push(txs);
    }
    bed.append_blocks(chain);
    bed.expected_hits = overlap;
    bed
}

/// Bed for Q4 (range query on `donate.amount`): `hits` donations in
/// the reserved `[HIT_LO, HIT_HI]` band, fillers below it; creates the
/// layered index on `donate.amount`.
pub fn range_bed(
    blocks: u64,
    txs_per_block: usize,
    hits: usize,
    placement: Placement,
    seed: u64,
) -> TestBed {
    let mut bed = TestBed::empty();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_block = place_hits(blocks, hits, placement, &mut rng);
    let mut chain = Vec::with_capacity(blocks as usize);
    for b in 0..blocks {
        let hit_count = per_block[b as usize];
        let mut txs = Vec::with_capacity(txs_per_block.max(hit_count));
        for slot in 0..hit_count {
            let amount = Value::decimal(rng.gen_range(HIT_LO..=HIT_HI));
            let t = bed.tx(
                b,
                slot,
                KeyId([2; 8]),
                "donate",
                vec![Value::str("donor"), Value::str("education"), amount],
            );
            txs.push(t);
        }
        for slot in hit_count..txs_per_block.max(hit_count) {
            // Range fillers are all donations (the paper's Q4 dataset
            // is 10 000 donate transactions), amounts below the band.
            let amount = Value::decimal(rng.gen_range(1..FILLER_MAX));
            let t = bed.tx(
                b,
                slot,
                KeyId([3; 8]),
                "donate",
                vec![Value::str("donor"), Value::str("education"), amount],
            );
            txs.push(t);
        }
        chain.push(txs);
    }
    bed.append_blocks(chain);
    // Histogram sample spanning both filler and hit bands.
    let sample: Vec<i64> = (0..FILLER_MAX)
        .step_by(16)
        .chain((HIT_LO..=HIT_HI).step_by(64))
        .map(|v| Value::decimal(v).numeric_rank().unwrap())
        .collect();
    bed.ledger
        .create_layered_index(&crate::schema::donate(), "amount", Some(sample))
        .unwrap();
    bed.expected_hits = hits;
    bed
}

/// Bed for Q5 (on-chain join `transfer ⋈ distribute ON organization`):
/// `pairs` shared organization values appearing once on each side, so
/// the join result has exactly `pairs` rows. Indexes both join
/// columns.
pub fn join_bed(
    blocks: u64,
    txs_per_block: usize,
    pairs: usize,
    placement: Placement,
    seed: u64,
) -> TestBed {
    let mut bed = TestBed::empty();
    let mut rng = StdRng::seed_from_u64(seed);
    let left = place_hits(blocks, pairs, placement, &mut rng);
    let right = place_hits(blocks, pairs, placement, &mut rng);
    let mut left_next = 0usize;
    let mut right_next = 0usize;
    let mut chain = Vec::with_capacity(blocks as usize);
    for b in 0..blocks {
        let mut txs = Vec::new();
        let mut slot = 0;
        for _ in 0..left[b as usize] {
            let org = format!("shared-org-{left_next}");
            left_next += 1;
            let t = bed.tx(
                b,
                slot,
                ORG1,
                "transfer",
                vec![
                    Value::str("education"),
                    Value::str("donor"),
                    Value::Str(org),
                    Value::decimal(rng.gen_range(1..FILLER_MAX)),
                ],
            );
            txs.push(t);
            slot += 1;
        }
        for _ in 0..right[b as usize] {
            let org = format!("shared-org-{right_next}");
            right_next += 1;
            let t = bed.tx(
                b,
                slot,
                KeyId([4; 8]),
                "distribute",
                vec![
                    Value::str("education"),
                    Value::str("donor"),
                    Value::Str(org),
                    Value::str("donee"),
                    Value::decimal(rng.gen_range(1..FILLER_MAX)),
                ],
            );
            txs.push(t);
            slot += 1;
        }
        while slot < txs_per_block {
            let t = bed.filler_tx(b, slot, &mut rng);
            txs.push(t);
            slot += 1;
        }
        chain.push(txs);
    }
    bed.append_blocks(chain);
    bed.ledger
        .create_layered_index(&crate::schema::transfer(), "organization", None)
        .unwrap();
    bed.ledger
        .create_layered_index(&crate::schema::distribute(), "organization", None)
        .unwrap();
    bed.expected_hits = pairs;
    bed
}

/// Bed for Q6 (on-off join `distribute ⋈ doneeinfo ON donee`):
/// `pairs` matching donees, plus `off_extra` off-chain rows that match
/// nothing. Indexes `distribute.donee`.
pub fn onoff_bed(
    blocks: u64,
    txs_per_block: usize,
    pairs: usize,
    off_extra: usize,
    placement: Placement,
    seed: u64,
) -> TestBed {
    let mut bed = TestBed::empty();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_block = place_hits(blocks, pairs, placement, &mut rng);
    let mut donee_next = 0usize;
    let mut chain = Vec::with_capacity(blocks as usize);
    for b in 0..blocks {
        let mut txs = Vec::new();
        let mut slot = 0;
        for _ in 0..per_block[b as usize] {
            let donee = format!("donee-{donee_next}");
            donee_next += 1;
            let t = bed.tx(
                b,
                slot,
                KeyId([4; 8]),
                "distribute",
                vec![
                    Value::str("education"),
                    Value::str("donor"),
                    Value::str("school1"),
                    Value::Str(donee),
                    Value::decimal(rng.gen_range(1..FILLER_MAX)),
                ],
            );
            txs.push(t);
            slot += 1;
        }
        while slot < txs_per_block {
            let t = bed.filler_tx(b, slot, &mut rng);
            txs.push(t);
            slot += 1;
        }
        chain.push(txs);
    }
    bed.append_blocks(chain);
    for i in 0..pairs {
        bed.conn
            .insert(
                "doneeinfo",
                vec![
                    Value::str(format!("donee-{i}")),
                    Value::decimal(rng.gen_range(100..2000)),
                    Value::Int(rng.gen_range(1..8)),
                ],
            )
            .unwrap();
    }
    for i in 0..off_extra {
        bed.conn
            .insert(
                "doneeinfo",
                vec![
                    Value::str(format!("unmatched-{i}")),
                    Value::decimal(rng.gen_range(100..2000)),
                    Value::Int(rng.gen_range(1..8)),
                ],
            )
            .unwrap();
    }
    bed.conn.create_index("doneeinfo", "donee").unwrap();
    bed.ledger
        .create_layered_index(&crate::schema::distribute(), "donee", None)
        .unwrap();
    bed.expected_hits = pairs;
    bed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_placement_spreads_evenly() {
        let mut rng = StdRng::seed_from_u64(1);
        let per = place_hits(10, 100, Placement::Uniform, &mut rng);
        assert!(per.iter().all(|&c| c == 10));
    }

    #[test]
    fn gaussian_placement_concentrates() {
        let mut rng = StdRng::seed_from_u64(1);
        let per = place_hits(100, 1000, Placement::Gaussian { std_blocks: 5.0 }, &mut rng);
        let middle: usize = per[40..60].iter().sum();
        assert!(middle > 900, "middle got {middle}");
        assert_eq!(per.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn tracking_bed_has_exact_hits() {
        let bed = tracking_bed(10, 20, 37, Placement::Uniform, 7);
        assert_eq!(bed.ledger.height(), 10);
        // Count org1 transactions by scanning.
        let mut count = 0;
        for b in 0..10 {
            let block = bed.ledger.read_block(b).unwrap();
            count += block
                .transactions
                .iter()
                .filter(|t| t.sender == ORG1)
                .count();
        }
        assert_eq!(count, 37);
    }

    #[test]
    fn range_bed_hits_in_band() {
        let bed = range_bed(8, 16, 25, Placement::gaussian(), 3);
        let mut in_band = 0;
        for b in 0..8 {
            let block = bed.ledger.read_block(b).unwrap();
            for t in &block.transactions {
                if t.tname == "donate" {
                    if let Some(Value::Decimal(d)) = t.get(sebdb_types::ColumnRef::App(2)) {
                        if d >= Value::decimal(HIT_LO).numeric_rank().unwrap() {
                            in_band += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(in_band, 25);
    }

    #[test]
    fn join_bed_unique_pairs() {
        let bed = join_bed(6, 12, 15, Placement::Uniform, 9);
        assert_eq!(bed.expected_hits, 15);
        assert_eq!(bed.ledger.height(), 6);
    }

    #[test]
    fn onoff_bed_offchain_rows() {
        let bed = onoff_bed(5, 10, 12, 30, Placement::Uniform, 11);
        assert_eq!(bed.conn.count("doneeinfo").unwrap(), 42);
    }

    #[test]
    fn tids_strictly_increase_across_blocks() {
        let bed = tracking_bed(5, 10, 10, Placement::Uniform, 2);
        let mut last = 0;
        for b in 0..5 {
            let block = bed.ledger.read_block(b).unwrap();
            for t in &block.transactions {
                assert!(t.tid > last);
                last = t.tid;
            }
        }
    }
}
