//! The oracle: every generated row is kept here, and every query's
//! row count is checked against it.
//!
//! Rows are numbered in submission order, which one submitting thread
//! and a FIFO mempool make the chain order. "What should this query
//! see" is therefore a prefix length: on the read-only workloads the
//! whole chain, on `mixed` somewhere between the rows known applied
//! when the query started and the rows submitted when it ended — so a
//! check is always `expected(lo) <= got <= expected(hi)`, with
//! `lo == hi` wherever nothing is being written. Rows with a forged MAC
//! never count: admission must refuse them.

use crate::gen::{Rng, Row, Table, DONEEINFO_ROWS};

/// One load segment: rows `first..end` were built, submitted and fully
/// applied between `start_ms` and `end_ms`, and no other row's `Ts`
/// or block timestamp falls inside — so `[start_ms, end_ms]` is an
/// exact time window for them.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Wall clock just before the first row was built.
    pub start_ms: u64,
    /// Wall clock after the last row was applied.
    pub end_ms: u64,
}

/// The generated rows plus the lookup structures that make expected
/// counts cheap enough to compute between timed queries.
#[derive(Default)]
pub struct Oracle {
    rows: Vec<Row>,
    /// Honest donate rows as `(amount, idx)`, sorted by amount.
    donate: Vec<(i64, u32)>,
    /// Honest `org1` rows, ascending idx.
    org1: Vec<u32>,
    /// Honest `org1` ∧ `transfer` rows as `(idx, seg)`, ascending idx.
    org1_transfer: Vec<(u32, u32)>,
    segments: Vec<Segment>,
    /// Whole-chain join counts, cached: only `mixed` asks for prefixes.
    joins_all: Option<(usize, usize)>,
}

impl Oracle {
    /// Records rows about to be submitted (in this order).
    pub fn push(&mut self, rows: &[Row]) {
        for r in rows.iter().filter(|r| !r.forged) {
            if r.table == Table::Donate {
                self.donate.push((r.amount, r.idx));
            }
            if r.op == 0 {
                self.org1.push(r.idx);
                if r.table == Table::Transfer {
                    self.org1_transfer.push((r.idx, r.seg));
                }
            }
        }
        self.donate.sort_unstable();
        self.rows.extend_from_slice(rows);
        self.joins_all = None;
    }

    /// Records segment `seg`'s quiet-gap window.
    pub fn close_segment(&mut self, seg: u32, window: Segment) {
        assert_eq!(seg as usize, self.segments.len(), "segments close in order");
        self.segments.push(window);
    }

    /// Rows recorded so far.
    pub fn len(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Closed segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Honest rows among the first `upto`.
    pub fn honest(&self, upto: u32) -> usize {
        self.rows[..upto as usize]
            .iter()
            .filter(|r| !r.forged)
            .count()
    }

    fn donate_in(&self, lo: i64, hi: i64) -> &[(i64, u32)] {
        let a = self.donate.partition_point(|&(amt, _)| amt < lo);
        let b = self.donate.partition_point(|&(amt, _)| amt <= hi);
        &self.donate[a..b]
    }

    /// Q4: donate rows with `lo <= amount <= hi` among the first `upto`.
    pub fn q4(&self, lo: i64, hi: i64, upto: u32) -> usize {
        self.donate_in(lo, hi)
            .iter()
            .filter(|&&(_, idx)| idx < upto)
            .count()
    }

    /// Q2: `org1` rows among the first `upto`.
    pub fn q2(&self, upto: u32) -> usize {
        self.org1.partition_point(|&idx| idx < upto)
    }

    /// Q3: `org1` ∧ `transfer` rows among the first `upto`, within
    /// segments `segs` (inclusive) when a window is given.
    pub fn q3(&self, segs: Option<(u32, u32)>, upto: u32) -> usize {
        let visible = &self.org1_transfer[..self.org1_transfer.partition_point(|&(i, _)| i < upto)];
        match segs {
            None => visible.len(),
            Some((a, b)) => visible.iter().filter(|&&(_, s)| a <= s && s <= b).count(),
        }
    }

    /// (Q5, Q6) row counts over the first `upto` rows: transfer ⋈
    /// distribute on organization, and distribute rows whose donee is
    /// in `doneeinfo`. Linear in `upto`; joins are rare.
    pub fn joins(&mut self, upto: u32) -> (usize, usize) {
        if upto == self.len() {
            if let Some(cached) = self.joins_all {
                return cached;
            }
        }
        let mut per_org: std::collections::HashMap<u32, (usize, usize)> = Default::default();
        let mut q6 = 0;
        for r in self.rows[..upto as usize].iter().filter(|r| !r.forged) {
            match r.table {
                Table::Donate => {}
                Table::Transfer => per_org.entry(r.org).or_default().0 += 1,
                Table::Distribute => {
                    per_org.entry(r.org).or_default().1 += 1;
                    q6 += usize::from((r.donee as u64) < DONEEINFO_ROWS);
                }
            }
        }
        let counts = (per_org.values().map(|&(t, d)| t * d).sum(), q6);
        if upto == self.len() {
            self.joins_all = Some(counts);
        }
        counts
    }

    /// An amount some donate row among the first `upto` carries.
    pub fn some_amount(&self, rng: &mut Rng, upto: u32) -> i64 {
        loop {
            let (amount, idx) = self.donate[rng.below(self.donate.len() as u64) as usize];
            if idx < upto {
                return amount;
            }
        }
    }
}

/// Whether `got` is a count the oracle allows.
pub fn allowed(got: usize, at_lo: usize, at_hi: usize) -> bool {
    at_lo <= got && got <= at_hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Domain, RowGen};

    fn oracle(n: usize) -> Oracle {
        let mut gen = RowGen::new(21, Domain::for_chain(n as u64));
        let mut o = Oracle::default();
        for seg in 0..4 {
            o.push(&gen.rows(n / 4, seg));
        }
        o
    }

    #[test]
    fn counts_match_brute_force() {
        let mut o = oracle(8_000);
        let honest: Vec<Row> = o.rows.iter().copied().filter(|r| !r.forged).collect();
        for upto in [0u32, 1, 3_000, 8_000] {
            let vis: Vec<&Row> = honest.iter().filter(|r| r.idx < upto).collect();
            let q4 = vis
                .iter()
                .filter(|r| r.table == Table::Donate && (1000..=90_000).contains(&r.amount))
                .count();
            assert_eq!(o.q4(1000, 90_000, upto), q4);
            assert_eq!(o.q2(upto), vis.iter().filter(|r| r.op == 0).count());
            let q3 = |a, b| {
                vis.iter()
                    .filter(|r| r.op == 0 && r.table == Table::Transfer)
                    .filter(|r| a <= r.seg && r.seg <= b)
                    .count()
            };
            assert_eq!(o.q3(None, upto), q3(0, u32::MAX));
            assert_eq!(o.q3(Some((1, 2)), upto), q3(1, 2));
            let q5: usize = vis
                .iter()
                .filter(|t| t.table == Table::Transfer)
                .map(|t| {
                    vis.iter()
                        .filter(|d| d.table == Table::Distribute && d.org == t.org)
                        .count()
                })
                .sum();
            assert_eq!(o.joins(upto).0, q5);
        }
        assert_eq!(o.honest(8_000), honest.len());
        assert!(honest.len() < 8_000, "one forged row per 10 000, phase 100");
    }

    #[test]
    fn some_amount_is_visible_and_present() {
        let o = oracle(4_000);
        let mut rng = Rng::new(1);
        for _ in 0..50 {
            let a = o.some_amount(&mut rng, 1_000);
            assert!(o.q4(a, a, 1_000) >= 1);
        }
    }

    #[test]
    fn allowed_is_inclusive() {
        assert!(allowed(5, 5, 5));
        assert!(allowed(6, 5, 7));
        assert!(!allowed(4, 5, 7));
        assert!(!allowed(8, 5, 7));
    }
}
