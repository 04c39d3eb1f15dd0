//! The read-side driver: one closed-loop client issuing the BChainBench
//! read mix through the node's SQL front door (`Strategy::Auto`, never
//! a forced strategy), timing each statement and checking every row
//! count against the oracle.

use crate::engine::{
    Access, Bed, Param, Q2_SQL, Q3_VIEW_SQL, Q3_WINDOW_SQL, Q4_POINT_SQL, Q4_RANGE_SQL, Q5_SQL,
    Q6_SQL, Q7_SQL,
};
use crate::gen::{Rng, AMOUNT_SPACE};
use crate::hist::Hist;
use crate::load::Progress;
use crate::oracle::{allowed, Oracle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The read operations, in the order a round issues them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Q4 `BETWEEN`, ~20 rows.
    Q4Range,
    /// Q4 `amount = ?`.
    Q4Point,
    /// Q2 one-dimension tracking.
    Q2,
    /// Q3 two-dimension tracking (windowed, or view-served on `mixed`).
    Q3,
    /// Q5 on-chain join.
    Q5,
    /// Q6 on-chain ⋈ off-chain join.
    Q6,
    /// Q7 block lookup.
    Q7,
    /// Authenticated range: serve + auxiliary digest + client verify.
    Auth,
}

/// Every kind, in round order.
pub const KINDS: [Kind; 8] = [
    Kind::Q4Range,
    Kind::Q4Point,
    Kind::Q2,
    Kind::Q3,
    Kind::Q5,
    Kind::Q6,
    Kind::Q7,
    Kind::Auth,
];

/// Passes over the kinds a round is issued in.
const SLICES: usize = 5;

/// Operations of each kind per round, indexed like [`KINDS`].
#[derive(Debug, Clone, Copy)]
pub struct Mix(pub [usize; 8]);

/// How far a concurrent writer has got, as row counts past `base`.
/// Read-only phases use a horizon whose counters stay at zero.
pub struct Horizon {
    base: u32,
    submitted: AtomicU64,
    resolved: AtomicU64,
}

impl Horizon {
    /// Rows `0..base` are applied; a writer may add more.
    pub fn after(base: u32) -> Horizon {
        Horizon {
            base,
            submitted: AtomicU64::new(0),
            resolved: AtomicU64::new(0),
        }
    }

    fn applied(&self) -> u32 {
        self.base + self.resolved.load(Ordering::Acquire) as u32
    }

    fn submitted(&self) -> u32 {
        self.base + self.submitted.load(Ordering::Acquire) as u32
    }
}

impl Progress for Horizon {
    fn submitted(&self, n: u64) {
        self.submitted.store(n, Ordering::Release);
    }
    fn resolved(&self, n: u64) {
        self.resolved.store(n, Ordering::Release);
    }
}

/// Draws Q4 ranges wide enough for about 20 rows at a chain's donate
/// density (amounts are uniform).
#[derive(Debug, Clone, Copy)]
pub struct RangeDraw {
    width: i64,
}

impl RangeDraw {
    /// For a chain whose first `visible` rows are applied.
    pub fn for_chain(oracle: &Oracle, visible: u32) -> RangeDraw {
        let donate_rows = oracle.q4(0, AMOUNT_SPACE as i64, visible).max(1);
        RangeDraw {
            width: (20 * AMOUNT_SPACE as i64 / donate_rows as i64).max(1),
        }
    }

    /// An inclusive `[lo, hi]`.
    pub fn draw(&self, rng: &mut Rng) -> (i64, i64) {
        let lo = rng.below(AMOUNT_SPACE - self.width as u64) as i64;
        (lo, lo + self.width)
    }
}

/// What the reader measured.
#[derive(Default)]
pub struct ReadStats {
    /// Latency per kind (ns) of each round, indexed like [`KINDS`];
    /// failed operations are not in here.
    pub rounds: Vec<[Hist; 8]>,
    /// Operations issued.
    pub attempted: u64,
    /// Errors and oracle mismatches.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// A tampered authenticated answer was offered to the client.
    pub tamper_offered: bool,
    /// ... and the client rejected it.
    pub tamper_rejected: bool,
}

/// One closed-loop read client.
pub struct Reader<'a> {
    bed: &'a Bed,
    oracle: &'a mut Oracle,
    horizon: &'a Horizon,
    rng: Rng,
    ranges: RangeDraw,
    /// Q3 window as a share of the segments, or `None` for the
    /// unwindowed (view-served) form.
    q3_window: Option<f64>,
    q3_issued: u64,
    /// Measurements so far.
    pub stats: ReadStats,
}

impl<'a> Reader<'a> {
    /// A reader over `bed`, checking against `oracle` as far as
    /// `horizon` says rows are visible.
    pub fn new(
        bed: &'a Bed,
        oracle: &'a mut Oracle,
        horizon: &'a Horizon,
        seed: u64,
        q3_window: Option<f64>,
    ) -> Reader<'a> {
        let ranges = RangeDraw::for_chain(oracle, horizon.applied());
        Reader {
            bed,
            oracle,
            horizon,
            rng: Rng::new(seed).fork(3),
            ranges,
            q3_window,
            q3_issued: 0,
            stats: ReadStats::default(),
        }
    }

    /// Issues one round of `mix`, in [`SLICES`] passes over the kinds:
    /// each pass issues a fifth of every kind's operations back to back.
    /// This host's memory speed moves by a quarter within a second, and
    /// a kind issued in one burst (20 × Q7 is 2 ms) would report where
    /// the host was in that instant; five bursts spread over the round
    /// report the round.
    pub fn round(&mut self, mix: &Mix) {
        self.round_while(mix, || true);
    }

    /// [`Reader::round`], abandoned at the first pass before which
    /// `go_on` says no. Returns whether the round was completed.
    pub fn round_while(&mut self, mix: &Mix, go_on: impl Fn() -> bool) -> bool {
        self.stats.rounds.push(Default::default());
        for slice in 0..SLICES {
            if !go_on() {
                return false;
            }
            for (k, &kind) in KINDS.iter().enumerate() {
                let upto = |s: usize| mix.0[k] * s / SLICES;
                for _ in upto(slice)..upto(slice + 1) {
                    self.one(kind);
                }
            }
        }
        true
    }

    fn record(&mut self, kind: Kind, nanos: u64) {
        let round = self.stats.rounds.last_mut().expect("inside a round");
        round[kind as usize].record(nanos);
    }

    fn fail(&mut self, what: String) {
        self.stats.failed += 1;
        if self.stats.failures.len() < 8 {
            self.stats.failures.push(what);
        }
    }

    /// Times `sql` and checks its row count lies between what `expect`
    /// gives for the rows visible before and after.
    fn sql(
        &mut self,
        kind: Kind,
        sql: &str,
        params: &[Param],
        expect: impl Fn(&mut Oracle, u32) -> usize,
    ) {
        let lo = self.horizon.applied();
        let start = Instant::now();
        let result = self.bed.query(sql, params, Access::Auto);
        let nanos = start.elapsed().as_nanos() as u64;
        let hi = self.horizon.submitted();
        match result {
            Err(e) => self.fail(e),
            Ok(rows) => {
                let (at_lo, at_hi) = (expect(self.oracle, lo), expect(self.oracle, hi));
                if allowed(rows.len(), at_lo, at_hi) {
                    self.record(kind, nanos);
                } else {
                    self.fail(format!(
                        "{kind:?}: {} rows, oracle allows {at_lo}..={at_hi}",
                        rows.len()
                    ));
                }
            }
        }
    }

    fn one(&mut self, kind: Kind) {
        self.stats.attempted += 1;
        match kind {
            Kind::Q4Range => {
                let (lo, hi) = self.ranges.draw(&mut self.rng);
                self.sql(
                    kind,
                    Q4_RANGE_SQL,
                    &[Param::Amount(lo), Param::Amount(hi)],
                    |o, upto| o.q4(lo, hi, upto),
                );
            }
            Kind::Q4Point => {
                let visible = self.horizon.applied();
                let a = self.oracle.some_amount(&mut self.rng, visible);
                self.sql(kind, Q4_POINT_SQL, &[Param::Amount(a)], |o, upto| {
                    o.q4(a, a, upto)
                });
            }
            Kind::Q2 => self.sql(kind, Q2_SQL, &[], |o, upto| o.q2(upto)),
            Kind::Q3 => match self.q3_window {
                None => self.sql(kind, Q3_VIEW_SQL, &[], |o, upto| o.q3(None, upto)),
                Some(share) => {
                    let n = self.oracle.segments().len() as u64;
                    let width = ((share * n as f64).round() as u64).clamp(1, n);
                    // Walk the windows in turn: every round then covers
                    // the same windows, whatever the seed drew.
                    let a = self.q3_issued % (n - width + 1);
                    self.q3_issued += 1;
                    let b = a + width - 1;
                    let segs = self.oracle.segments();
                    let window = [
                        Param::Int(segs[a as usize].start_ms),
                        Param::Int(segs[b as usize].end_ms),
                    ];
                    self.sql(kind, Q3_WINDOW_SQL, &window, |o, upto| {
                        o.q3(Some((a as u32, b as u32)), upto)
                    });
                }
            },
            Kind::Q5 => self.sql(kind, Q5_SQL, &[], |o, upto| o.joins(upto).0),
            Kind::Q6 => self.sql(kind, Q6_SQL, &[], |o, upto| o.joins(upto).1),
            Kind::Q7 => {
                let bid = self.rng.below(self.bed.height().max(1));
                let start = Instant::now();
                let result = self.bed.query(Q7_SQL, &[Param::Int(bid)], Access::Auto);
                let nanos = start.elapsed().as_nanos() as u64;
                match result {
                    Ok(rows) if rows.len() == 1 && rows.int(0, 0) == Some(bid as i64) => {
                        self.record(kind, nanos);
                    }
                    Ok(rows) => self.fail(format!("Q7: block {bid}: {} rows", rows.len())),
                    Err(e) => self.fail(e),
                }
            }
            Kind::Auth => self.auth(),
        }
    }

    /// Serve + one auxiliary digest + thin-client verify, timed as one
    /// operation; once per run a tampered answer must be rejected.
    fn auth(&mut self) {
        let (lo, hi) = self.ranges.draw(&mut self.rng);
        let vis_lo = self.horizon.applied();
        let start = Instant::now();
        let outcome = self.bed.auth_serve(lo, hi).and_then(|answer| {
            let digest = self.bed.auth_aux(&answer)?;
            answer.verify(&digest)?;
            Ok((answer, digest))
        });
        let nanos = start.elapsed().as_nanos() as u64;
        let vis_hi = self.horizon.submitted();
        match outcome {
            Err(e) => self.fail(format!("Auth: {e}")),
            Ok((answer, digest)) => {
                let (at_lo, at_hi) = (
                    self.oracle.q4(lo, hi, vis_lo),
                    self.oracle.q4(lo, hi, vis_hi),
                );
                if !allowed(answer.len(), at_lo, at_hi) {
                    self.fail(format!(
                        "Auth: {} results, oracle allows {at_lo}..={at_hi}",
                        answer.len()
                    ));
                    return;
                }
                self.record(Kind::Auth, nanos);
                if !self.stats.tamper_offered {
                    if let Some(forged) = answer.tampered() {
                        self.stats.tamper_offered = true;
                        self.stats.tamper_rejected = forged.verify(&digest).is_err();
                    }
                }
            }
        }
    }
}
