//! Seeded input generation: the BChainBench donation rows (§VII-A) and
//! the query parameters drawn against them. Nothing here touches the
//! engine — rows are plain data the adapter turns into transactions and
//! the oracle keeps for checking — so the same seed always yields the
//! same inputs.

/// SplitMix64: small, seedable, and good enough to spread keys.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is below 2⁻³² for every n used here.
        ((self.next() >> 32) * n) >> 32
    }

    /// An independent stream for a named purpose, so adding draws to
    /// one consumer never shifts another's inputs.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }
}

/// The three on-chain relations, mixed 50 / 25 / 25.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// `donate(donor, project, amount)`
    Donate,
    /// `transfer(project, donor, organization, amount)`
    Transfer,
    /// `distribute(project, donor, organization, donee, amount)`
    Distribute,
}

impl Table {
    /// Relation name as created through SQL.
    pub fn name(self) -> &'static str {
        match self {
            Table::Donate => "donate",
            Table::Transfer => "transfer",
            Table::Distribute => "distribute",
        }
    }
}

/// Operators (senders). `org1` is the tracked one: 1 % of rows.
pub const OPERATORS: usize = 8;
/// Amounts are whole units uniform in `[0, AMOUNT_SPACE)`.
pub const AMOUNT_SPACE: u64 = 1_000_000;
/// Rows of the off-chain `doneeinfo` table; donee ids below this join.
pub const DONEEINFO_ROWS: u64 = 2_000;
/// One row in this many carries a forged MAC (refused at admission).
pub const FORGE_EVERY: u32 = 10_000;
const FORGE_PHASE: u32 = 100;
/// `org1` sends every `ORG1_EVERY`-th row (1 %).
const ORG1_EVERY: u32 = 100;
const ORG1_PHASE: u32 = 37;

/// One generated tuple. `idx` is its position in submission order,
/// which is also chain order because one thread submits.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Position in submission order.
    pub idx: u32,
    /// Load segment the row was submitted in (segments are separated by
    /// quiet gaps, so they double as exact time windows).
    pub seg: u32,
    /// Relation.
    pub table: Table,
    /// Operator index, 0 = `org1`.
    pub op: u8,
    /// Whole-unit amount.
    pub amount: i64,
    /// Donor id.
    pub donor: u32,
    /// Organization id (transfer / distribute).
    pub org: u32,
    /// Donee id (distribute).
    pub donee: u32,
    /// Carries a corrupted MAC; admission must refuse it.
    pub forged: bool,
}

/// Cardinalities that keep join results small at a planned chain size:
/// Q5 (transfer ⋈ distribute on organization) and Q6 (distribute ⋈
/// doneeinfo on donee) both stay near 500 rows.
#[derive(Debug, Clone, Copy)]
pub struct Domain {
    /// Distinct organizations.
    pub orgs: u64,
    /// Distinct donees.
    pub donees: u64,
}

impl Domain {
    /// Domain sized for a chain planned to hold `total_txs` tuples.
    pub fn for_chain(total_txs: u64) -> Domain {
        let per_side = (total_txs / 4).max(1); // transfer and distribute: 25 % each
        Domain {
            orgs: (per_side * per_side / 500).max(1_000),
            donees: (per_side * DONEEINFO_ROWS / 500).max(2 * DONEEINFO_ROWS),
        }
    }
}

/// Generates rows in submission order.
pub struct RowGen {
    rng: Rng,
    domain: Domain,
    next_idx: u32,
}

impl RowGen {
    /// A generator for `seed` over `domain`.
    pub fn new(seed: u64, domain: Domain) -> RowGen {
        RowGen {
            rng: Rng::new(seed).fork(1),
            domain,
            next_idx: 0,
        }
    }

    /// The next `n` rows, tagged with segment `seg`.
    pub fn rows(&mut self, n: usize, seg: u32) -> Vec<Row> {
        (0..n).map(|_| self.row(seg)).collect()
    }

    fn row(&mut self, seg: u32) -> Row {
        let idx = self.next_idx;
        self.next_idx += 1;
        let r = &mut self.rng;
        let mut table = match r.below(100) {
            0..=49 => Table::Donate,
            50..=74 => Table::Transfer,
            _ => Table::Distribute,
        };
        let mut op = 1 + r.below(OPERATORS as u64 - 1) as u8;
        // `org1` is placed, not drawn: every 100th row, cycling through
        // the relations 2 : 1 : 1. A tracking query costs by the rows it
        // returns, and with a drawn 0.25 % the count per window would
        // differ by a third from seed to seed — the metric would track
        // the draw, not the engine.
        if idx % ORG1_EVERY == ORG1_PHASE {
            op = 0;
            table = match (idx / ORG1_EVERY) % 4 {
                0 | 2 => Table::Donate,
                1 => Table::Transfer,
                _ => Table::Distribute,
            };
        }
        Row {
            idx,
            seg,
            table,
            op,
            amount: r.below(AMOUNT_SPACE) as i64,
            donor: r.below(100_000) as u32,
            org: r.below(self.domain.orgs) as u32,
            donee: r.below(self.domain.donees) as u32,
            forged: idx % FORGE_EVERY == FORGE_PHASE,
        }
    }
}

/// `n` ranks uniform over the amount space, seeding the equal-depth
/// histogram of `donate.amount` before any history exists.
pub fn amount_sample(seed: u64, n: usize) -> Vec<i64> {
    let mut r = Rng::new(seed).fork(2);
    (0..n).map(|_| r.below(AMOUNT_SPACE) as i64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows() {
        let d = Domain::for_chain(50_000);
        let a = RowGen::new(9, d).rows(500, 0);
        let b = RowGen::new(9, d).rows(500, 0);
        let c = RowGen::new(10, d).rows(500, 0);
        let key = |r: &Row| (r.table.name(), r.op, r.amount, r.org, r.donee);
        assert!(a.iter().zip(&b).all(|(x, y)| key(x) == key(y)));
        assert!(a.iter().zip(&c).any(|(x, y)| key(x) != key(y)));
    }

    #[test]
    fn mix_and_operator_shares() {
        let rows = RowGen::new(3, Domain::for_chain(100_000)).rows(100_000, 0);
        let share = |f: &dyn Fn(&Row) -> bool| {
            rows.iter().filter(|r| f(r)).count() as f64 / rows.len() as f64
        };
        assert!((share(&|r| r.table == Table::Donate) - 0.50).abs() < 0.01);
        assert!((share(&|r| r.table == Table::Transfer) - 0.25).abs() < 0.01);
        assert!((share(&|r| r.op == 0) - 0.01).abs() < 0.002);
        assert!((share(&|r| r.op == 0 && r.table == Table::Transfer) - 0.0025).abs() < 0.001);
        assert_eq!(rows.iter().filter(|r| r.forged).count(), 10);
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        let base = Rng::new(5);
        let mut a = base.fork(1);
        let mut b = base.fork(2);
        assert_ne!(a.next(), b.next());
    }
}
