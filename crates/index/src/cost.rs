//! The select cost model (§IV-B, Equations 1–3).
//!
//! The planner uses these estimates to pick among full scan, bitmap
//! index, and layered index:
//!
//! * `C_scan    = n·t_S + (f·n/b)·t_T`        — read every block;
//! * `C_bitmap  = k·t_S + (f·k/b)·t_T, k ≤ n` — read only blocks that
//!   contain the table;
//! * `C_layered = p·t_S + p·t_T`              — one seek + transfer per
//!   matching tuple (random I/O).
//!
//! "If the size of query result is large, using table-level bitmap
//! index may outperform layered index since random I/O is slow."
//!
//! `p` is not estimated. The range executor walks the layered index
//! (index-only) and asks [`CostParams::choose_paged`] after every
//! candidate block whether the layered path still wins at the pointers
//! counted so far; it stops at the first "no". The walk therefore
//! collects at most `min(C_scan, C_bitmap) / (t_S + t_T)` pointers
//! before giving up — about 26 per table block at the defaults.
//!
//! The executor plans with [`CostParams::default`]. Nothing here reads
//! a clock or the store's cache counters, so a plan is a function of
//! the counts above: the same chain plans the same on any host and
//! after any query history.

/// Device/deployment parameters of the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Average disk block access (seek) time `t_S`, in µs.
    pub seek_us: f64,
    /// Transfer time per disk block `t_T`, in µs.
    pub transfer_us: f64,
    /// Size of a packaged blockchain block `f`, in bytes.
    pub chain_block_bytes: u64,
    /// Disk block size `b`, in bytes.
    pub disk_block_bytes: u64,
    /// Average tuple size in bytes — what one layered-index random
    /// read actually transfers now that the store serves tuple-granular
    /// preads (rather than a full chain block per tuple).
    pub tuple_bytes: u64,
    /// In-memory probe of one frozen-index fence table, in µs — the
    /// CPU-side part of a paged index-block access (binary search over
    /// the resident fence array).
    pub fence_probe_us: f64,
    /// Expected hit rate of the index-block cache in [0, 1]; misses pay
    /// a seek + one disk-block transfer to page the level-1 block in.
    pub index_cache_hit_rate: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // An HDD-ish profile (the paper's testbed used RAID-5 spinning
        // disks): 4 ms seek, ~0.1 ms transfer of a 4 KB disk block.
        // Tuples average well under one disk block, so a layered read
        // transfers a single disk block.
        CostParams {
            seek_us: 4_000.0,
            transfer_us: 100.0,
            chain_block_bytes: 4 * 1024 * 1024,
            disk_block_bytes: 4 * 1024,
            tuple_bytes: 256,
            fence_probe_us: 1.0,
            index_cache_hit_rate: 0.9,
        }
    }
}

/// Access-path choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Scan every block.
    Scan,
    /// Read blocks selected by the table-level bitmap.
    Bitmap,
    /// Read individual tuples via the layered index.
    Layered,
}

impl CostParams {
    /// Eq. (1): full scan over a chain of `n` blocks.
    pub fn cost_scan(&self, n: u64) -> f64 {
        let disk_blocks = (self.chain_block_bytes as f64 / self.disk_block_bytes as f64) * n as f64;
        n as f64 * self.seek_us + disk_blocks * self.transfer_us
    }

    /// Eq. (2): bitmap path reading `k ≤ n` blocks.
    pub fn cost_bitmap(&self, k: u64) -> f64 {
        self.cost_scan(k)
    }

    /// Eq. (3): layered path reading `p` matching tuples at random.
    /// Each random read seeks once and transfers only the disk blocks
    /// covering one tuple (`⌈tuple_bytes/b⌉`, 1 at the defaults) —
    /// tuple-granular preads mean the transfer term no longer scales
    /// with the chain block size.
    pub fn cost_layered(&self, p: u64) -> f64 {
        let blocks_per_tuple = (self.tuple_bytes as f64 / self.disk_block_bytes as f64)
            .ceil()
            .max(1.0);
        p as f64 * (self.seek_us + blocks_per_tuple * self.transfer_us)
    }

    /// Cost of probing `index_blocks` level-1 blocks of a disk-resident
    /// index: every probe binary-searches the resident fence array;
    /// cache misses additionally seek and transfer one disk block
    /// (Eq. 3's per-block transfer term applied to the index itself).
    /// With `index_cache_hit_rate = 1` this degenerates to the
    /// in-memory probe cost — the `cache=∞` reference.
    pub fn cost_index_probe(&self, index_blocks: u64) -> f64 {
        let miss = (1.0 - self.index_cache_hit_rate).clamp(0.0, 1.0);
        index_blocks as f64 * (self.fence_probe_us + miss * (self.seek_us + self.transfer_us))
    }

    /// Eq. (3) on a paged index: the layered tuple reads plus the cost
    /// of paging the index blocks consulted along the way.
    pub fn cost_layered_paged(&self, p: u64, index_blocks: u64) -> f64 {
        self.cost_layered(p) + self.cost_index_probe(index_blocks)
    }

    /// Picks the cheapest path given the chain height `n`, the bitmap
    /// candidate count `k`, and the result cardinality `p` (counted by
    /// the caller's index probe, or its running count mid-probe), with
    /// a fully resident layered index (`index_blocks = 0`).
    pub fn choose(&self, n: u64, k: u64, p: u64) -> AccessPath {
        self.choose_paged(n, k, p, 0)
    }

    /// [`Self::choose`] for a disk-resident layered index that must
    /// page in `index_blocks` level-1 index blocks along the way. The scan and bitmap paths never consult the layered
    /// index, so only the layered term moves.
    pub fn choose_paged(&self, n: u64, k: u64, p: u64, index_blocks: u64) -> AccessPath {
        let scan = self.cost_scan(n);
        let bitmap = self.cost_bitmap(k);
        let layered = self.cost_layered_paged(p, index_blocks);
        if layered <= bitmap && layered <= scan {
            AccessPath::Layered
        } else if bitmap <= scan {
            AccessPath::Bitmap
        } else {
            AccessPath::Scan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_queries_prefer_layered() {
        let c = CostParams::default();
        // 1000 blocks, table spans 800 of them, 50 matching tuples.
        assert_eq!(c.choose(1000, 800, 50), AccessPath::Layered);
    }

    #[test]
    fn huge_results_prefer_bitmap() {
        let c = CostParams::default();
        // Few blocks hold the table but the result is enormous: random
        // I/O per tuple loses ("random I/O is slow").
        assert_eq!(c.choose(1000, 100, 2_000_000), AccessPath::Bitmap);
    }

    #[test]
    fn scan_only_when_bitmap_covers_everything() {
        let c = CostParams::default();
        let scan = c.cost_scan(100);
        let bitmap_all = c.cost_bitmap(100);
        assert!(
            (scan - bitmap_all).abs() < 1e-9,
            "k = n degenerates to scan"
        );
    }

    #[test]
    fn costs_are_monotone() {
        let c = CostParams::default();
        assert!(c.cost_scan(10) < c.cost_scan(20));
        assert!(c.cost_bitmap(5) < c.cost_bitmap(6));
        assert!(c.cost_layered(100) < c.cost_layered(101));
    }

    #[test]
    fn larger_tuples_raise_layered_cost() {
        let small = CostParams::default();
        let big = CostParams {
            tuple_bytes: 64 * 1024,
            ..CostParams::default()
        };
        assert!(big.cost_layered(100) > small.cost_layered(100));
        // At the defaults a tuple fits in one disk block, so the
        // per-tuple transfer is exactly one t_T.
        assert!((small.cost_layered(1) - (small.seek_us + small.transfer_us)).abs() < 1e-9);
    }

    #[test]
    fn paged_probe_cost_vanishes_at_full_hit_rate() {
        let c = CostParams {
            index_cache_hit_rate: 1.0,
            ..CostParams::default()
        };
        // Only the in-memory fence probes remain.
        assert!((c.cost_index_probe(100) - 100.0 * c.fence_probe_us).abs() < 1e-9);
        let cold = CostParams {
            index_cache_hit_rate: 0.0,
            ..CostParams::default()
        };
        // A cold cache pays a full random read per index block.
        assert!(cold.cost_index_probe(10) > cold.cost_layered(9));
        assert!(
            cold.cost_layered_paged(100, 10) > cold.cost_layered(100),
            "paged path must not be free"
        );
    }

    #[test]
    fn paged_probes_shift_the_crossover() {
        // A cold index cache makes the layered path strictly less
        // attractive: a (n, k, p) point that picks Layered when the
        // index is resident flips once every candidate block also
        // pages an index block at hit rate 0.
        let cold = CostParams {
            index_cache_hit_rate: 0.0,
            ..CostParams::default()
        };
        let (n, k, p) = (10_000, 98, 2_000);
        assert_eq!(cold.choose(n, k, p), AccessPath::Layered);
        assert_eq!(cold.choose_paged(n, k, p, 0), AccessPath::Layered);
        assert_eq!(cold.choose_paged(n, k, p, 100_000), AccessPath::Bitmap);
    }

    #[test]
    fn probe_waste_is_bounded_by_the_crossover() {
        // The probe-first planner abandons its index walk at the first
        // p where Layered stops winning. At the defaults that is 26
        // pointers per table block, whatever the chain length.
        let c = CostParams::default();
        for k in [1u64, 40, 4_000] {
            let last_win = (0..).find(|&p| c.choose(2 * k, k, p + 1) != AccessPath::Layered);
            assert_eq!(last_win.map(|p| p / k), Some(25), "k = {k}");
        }
    }

    #[test]
    fn crossover_exists() {
        // As p grows with fixed k, layered eventually loses to bitmap —
        // the crossover the paper discusses after Eq. (3).
        let c = CostParams::default();
        let k = 100;
        let small_p = c.choose(1000, k, 10);
        let large_p = c.choose(1000, k, 10_000_000);
        assert_eq!(small_p, AccessPath::Layered);
        assert_eq!(large_p, AccessPath::Bitmap);
    }
}
