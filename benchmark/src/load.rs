//! Write-side load drivers. One thread both submits and polls — acks
//! with `try_recv`, the applied height with `Ledger::height` — so no
//! collector thread competes with the engine for the two cores.
//!
//! * [`saturate`]: closed on in-flight count — push a pre-signed
//!   segment as fast as the orderer takes it, at most
//!   [`MAX_IN_FLIGHT`] unacknowledged, timed from first submit until the
//!   applied height passes the last ack.
//! * [`paced`]: open loop — each transaction has a due time on a fixed
//!   schedule and its latencies count from that due time, so a stall
//!   charges every transaction that was due during it. How late the
//!   generator itself ran is reported beside the latencies.

use crate::engine::{Ack, AckState, Bed, SignedTx};
use crate::hist::Hist;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Unacknowledged submissions the saturating driver allows.
pub const MAX_IN_FLIGHT: usize = 1024;
/// A submission unresolved this long is a failure.
const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// Per-transaction outcome counts of one load phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    /// Transactions submitted.
    pub attempted: u64,
    /// Honest transactions committed and applied.
    pub applied: u64,
    /// Honest transactions refused, lost or not applied in time.
    pub failed: u64,
    /// Forged transactions refused at admission (expected).
    pub forged_refused: u64,
    /// Forged transactions the orderer accepted (fails the run).
    pub forged_accepted: u64,
    /// Highest block sequence acknowledged.
    pub last_seq: Option<u64>,
}

impl Outcomes {
    /// Adds another phase's counts.
    pub fn absorb(&mut self, o: &Outcomes) {
        self.attempted += o.attempted;
        self.applied += o.applied;
        self.failed += o.failed;
        self.forged_refused += o.forged_refused;
        self.forged_accepted += o.forged_accepted;
        self.last_seq = self.last_seq.max(o.last_seq);
    }

    fn ack(&mut self, state: AckState, forged: bool) -> Option<u64> {
        match (state, forged) {
            (AckState::Committed { seq }, false) => {
                self.last_seq = self.last_seq.max(Some(seq));
                Some(seq)
            }
            (AckState::Committed { seq }, true) => {
                self.last_seq = self.last_seq.max(Some(seq));
                self.forged_accepted += 1;
                None
            }
            (AckState::Refused, true) => {
                self.forged_refused += 1;
                None
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

/// One saturating segment's result.
pub struct SegmentRun {
    /// Outcome counts.
    pub outcomes: Outcomes,
    /// Honest transactions applied per second, first submit → applied.
    pub tps: f64,
}

/// Pushes `txs` (with their forged flags) as fast as the orderer takes
/// them and waits until all of them are applied.
pub fn saturate(bed: &Bed, txs: Vec<(SignedTx, bool)>) -> SegmentRun {
    let mut out = Outcomes::default();
    let mut in_flight: VecDeque<(Ack, bool)> = VecDeque::with_capacity(MAX_IN_FLIGHT);
    let mut committed = 0u64;
    let start = Instant::now();
    let mut settle = |out: &mut Outcomes, (ack, forged): (Ack, bool)| {
        if out.ack(ack.wait(OP_TIMEOUT), forged).is_some() {
            committed += 1;
        }
    };
    for (tx, forged) in txs {
        if in_flight.len() >= MAX_IN_FLIGHT {
            let oldest = in_flight.pop_front().expect("non-empty");
            settle(&mut out, oldest);
        }
        out.attempted += 1;
        in_flight.push_back((bed.submit(tx), forged));
    }
    for pending in in_flight.drain(..) {
        settle(&mut out, pending);
    }
    let applied = match out.last_seq {
        Some(seq) => bed.wait_height(seq + 1, OP_TIMEOUT),
        None => true,
    };
    let secs = start.elapsed().as_secs_f64();
    if applied {
        out.applied = committed;
    } else {
        out.failed += committed;
    }
    SegmentRun {
        outcomes: out,
        tps: out.applied as f64 / secs,
    }
}

/// Latencies of one window of a paced phase, in nanoseconds.
#[derive(Default, Clone)]
pub struct Window {
    /// Due → applied (queryable).
    pub commit: Hist,
    /// Due → ordering ack.
    pub order_wait: Hist,
    /// Ordering ack → applied.
    pub apply_lag: Hist,
}

/// One paced phase.
#[derive(Default)]
pub struct PacedRun {
    /// Outcome counts.
    pub outcomes: Outcomes,
    /// Consecutive windows of equally many due transactions: the
    /// phase's interleaved rounds.
    pub windows: Vec<Window>,
    /// Due → actually submitted: the generator's own lateness.
    pub gen_late: Hist,
    /// Unresolved transactions when half were submitted.
    pub in_flight_mid: usize,
    /// Unresolved transactions when the last was submitted.
    pub in_flight_end: usize,
    /// Offered rate.
    pub rate: f64,
}

struct Sent {
    /// Position in the phase's submission order.
    pos: u64,
    due: Instant,
    ack: Ack,
    forged: bool,
}

struct Acked {
    pos: u64,
    due: Instant,
    acked: Instant,
    seq: u64,
}

/// Progress a concurrent reader may observe while a paced phase runs.
pub trait Progress {
    /// `n` transactions have been handed to the orderer so far.
    fn submitted(&self, n: u64);
    /// The first `n` transactions are resolved: applied, or refused.
    fn resolved(&self, n: u64);
}

/// No observer.
pub struct Unobserved;
impl Progress for Unobserved {
    fn submitted(&self, _: u64) {}
    fn resolved(&self, _: u64) {}
}

struct PacedState<'a, P: Progress> {
    bed: &'a Bed,
    progress: &'a P,
    run: PacedRun,
    /// Transactions per window.
    window_txs: u64,
    unacked: VecDeque<Sent>,
    acked: VecDeque<Acked>,
}

impl<P: Progress> PacedState<'_, P> {
    /// Settles whatever has been acknowledged or applied by now.
    fn poll(&mut self) {
        while let Some(front) = self.unacked.front() {
            let state = front.ack.poll();
            if state == AckState::Pending {
                if front.due.elapsed() < OP_TIMEOUT {
                    break;
                }
                self.run.outcomes.failed += 1;
                self.unacked.pop_front();
                continue;
            }
            let sent = self.unacked.pop_front().expect("front exists");
            let now = Instant::now();
            if let Some(seq) = self.run.outcomes.ack(state, sent.forged) {
                self.run.windows[(sent.pos / self.window_txs) as usize]
                    .order_wait
                    .record(now.duration_since(sent.due).as_nanos() as u64);
                self.acked.push_back(Acked {
                    pos: sent.pos,
                    due: sent.due,
                    acked: now,
                    seq,
                });
            }
        }
        let height = self.bed.height();
        while self.acked.front().is_some_and(|a| a.seq < height) {
            let a = self.acked.pop_front().expect("front exists");
            let now = Instant::now();
            let window = &mut self.run.windows[(a.pos / self.window_txs) as usize];
            window
                .commit
                .record(now.duration_since(a.due).as_nanos() as u64);
            window
                .apply_lag
                .record(now.duration_since(a.acked).as_nanos() as u64);
            self.run.outcomes.applied += 1;
            // Acks and applies both arrive in submission order, so
            // everything up to this position is applied or refused.
            self.progress.resolved(a.pos + 1);
        }
    }

    fn in_flight(&self) -> usize {
        self.unacked.len() + self.acked.len()
    }
}

/// Submits `txs` on a fixed schedule of `rate` per second, polling
/// between due times, then waits for the stragglers. Latencies are
/// kept per window of `txs.len() / windows` consecutive transactions.
pub fn paced<P: Progress>(
    bed: &Bed,
    txs: Vec<(SignedTx, bool)>,
    rate: f64,
    windows: usize,
    progress: &P,
) -> PacedRun {
    let total = txs.len();
    let windows = windows.clamp(1, total.max(1));
    let mut st = PacedState {
        bed,
        progress,
        run: PacedRun {
            rate,
            windows: vec![Window::default(); windows],
            ..PacedRun::default()
        },
        window_txs: total.div_ceil(windows).max(1) as u64,
        unacked: VecDeque::new(),
        acked: VecDeque::new(),
    };
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(1);
    for (i, (tx, forged)) in txs.into_iter().enumerate() {
        let due = start + interval.mul_f64(i as f64);
        loop {
            st.poll();
            if Instant::now() >= due {
                break;
            }
            // Give the core to the engine's threads if they want it;
            // with an idle core this returns at once.
            std::thread::yield_now();
        }
        st.run
            .gen_late
            .record(Instant::now().duration_since(due).as_nanos() as u64);
        st.run.outcomes.attempted += 1;
        // Announce before handing over: a reader must never see a row
        // the writer has not yet counted as submitted.
        progress.submitted(i as u64 + 1);
        st.unacked.push_back(Sent {
            pos: i as u64,
            due,
            ack: bed.submit(tx),
            forged,
        });
        if i + 1 == total / 2 {
            st.run.in_flight_mid = st.in_flight();
        }
    }
    st.run.in_flight_end = st.in_flight();
    let drain_deadline = Instant::now() + OP_TIMEOUT;
    while st.in_flight() > 0 && Instant::now() < drain_deadline {
        st.poll();
        std::thread::yield_now();
    }
    st.run.outcomes.failed += st.in_flight() as u64;
    st.run
}
