//! The four workloads and the untraced, end-to-end run.
//!
//! Every workload is the same sequence of phases at different sizes —
//! set-up (node, schema, indexes, preload), closed-loop read rounds,
//! saturating write segments, a paced open-loop write phase — because
//! every end-to-end metric is reported on every workload. Reads come
//! before the measured writes so that a read-only workload's reads see
//! exactly the state its set-up built; on `mixed` they run beside the
//! paced phase instead. What makes a workload itself is where its
//! measured time goes and what state the engine is in while it goes
//! there; see [`plan`] for the reason each one exists.
//!
//! Each phase is cut into interleaved rounds of identical work — read
//! rounds of one fixed operation mix, load segments, windows of the
//! paced schedule — because this sandbox's speed moves by a quarter or
//! more for seconds at a time, and a single pass over a run reads one
//! such episode as a change in the engine. A read latency is the median
//! of its kind's samples pooled over all rounds; a commit latency is
//! taken inside every window and the run reports the median window.
//!
//! Sizes are the issue's shapes scaled to the driver's time cap (a run
//! with its three set-ups in about 20 s on two cores); the scale of
//! each workload is stated where its numbers are.

use crate::engine::{Bed, EngineConfig, SignedTx};
use crate::gen::{amount_sample, Domain, RowGen};
use crate::hist::{median, Hist};
use crate::json::{obj, Json};
use crate::load::{paced, saturate, Outcomes, PacedRun, Unobserved};
use crate::oracle::{Oracle, Segment};
use crate::queries::{Horizon, Kind, Mix, ReadStats, Reader, KINDS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["ingest", "query", "deep", "mixed"];
/// Ranks seeding the `donate.amount` histogram.
const HISTOGRAM_SAMPLE: usize = 2_000;
/// Transactions a paced window needs: its p99 must have ten beyond it
/// even after a forged transaction or two was refused.
const WINDOW_FLOOR: usize = 1_200;

/// A run of equally sized load segments.
#[derive(Debug, Clone, Copy)]
pub struct Segments {
    /// How many.
    pub count: usize,
    /// Transactions in each (a multiple of the packaging cut, so no
    /// segment ends on a block waiting for the packaging timeout).
    pub txs: usize,
}

/// Sizes of one workload's phases.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// Engine settings that differ from the fixed configuration.
    pub engine: EngineConfig,
    /// Segments loaded during set-up.
    pub preload: Segments,
    /// `checkpoint_indexes()` after the preload (every family frozen).
    pub freeze_after_preload: bool,
    /// `set_checkpoint_every(n)` after the preload.
    pub checkpoint_every: Option<u64>,
    /// Register the `org1` ∧ `transfer` view after the preload.
    pub view: bool,
    /// Saturating segments in the measured window.
    pub saturate: Segments,
    /// Offered rate of the paced phase, tx/s.
    pub paced_rate: f64,
    /// The paced phase: (transactions, windows it is cut into).
    pub paced: (usize, usize),
    /// Reads run beside the paced phase instead of before or after it.
    pub concurrent: bool,
    /// Operations per read round: at least 20 of a kind, so that every
    /// round supports its own median, and enough Q4 ranges that nine
    /// rounds support a whole-run p99.
    pub mix: Mix,
    /// Read rounds (on `mixed`: at least this many complete ones, and
    /// then for as long as the writer writes).
    pub rounds: usize,
    /// Q3 window as a share of the chain's segments; `None` = no window.
    pub q3_window: Option<f64>,
    /// Timed `Ledger::new(BlockStore::open(dir))` after shutdown.
    pub reopens: usize,
}

fn round_to(n: f64, multiple: usize) -> usize {
    ((n / multiple as f64).round() as usize).max(1) * multiple
}

/// The plan for workload `name`, measuring for about `seconds`, with
/// data sizes multiplied by `size` (1.0 normally, 0.02 for `--smoke`).
pub fn plan(name: &str, seconds: f64, size: f64) -> Option<Plan> {
    let t = seconds / 10.0;
    let paper = EngineConfig {
        max_txs: 200,
        timeout_ms: 200,
        index_cache_blocks: None,
    };
    let seg = |count: usize, txs: f64, cut: usize| Segments {
        count,
        txs: round_to(txs * size, cut),
    };
    let scaled = |n: f64, least: usize| ((n * t).round() as usize).max(least);
    // A paced phase at `rate` in `windows` windows (at full length) of
    // `window_secs` each: whole blocks, and enough transactions in every
    // window for its own p99. A shorter run has fewer windows, then
    // shorter ones. Returns (transactions, windows).
    let pace = |rate: f64, window_secs: f64, windows: f64, cut: usize| {
        let windows = scaled(windows, 1);
        let txs = rate * window_secs * t.min(1.0);
        let per_window = round_to(txs.max(WINDOW_FLOOR as f64), cut);
        (per_window * windows, windows)
    };
    Some(match name {
        // Write-only where it is measured: seal/Merkle, partition
        // persist, index update and the apply pipeline do all the work;
        // the reads are a short probe of a small fresh chain before the
        // load starts. Issue shape 16 × 50 000 saturating + 20 000 tx/s
        // × 10 s paced, here at 1/5.
        "ingest" => Plan {
            name: "ingest",
            engine: paper,
            preload: seg(4, 2_400.0, 200),
            freeze_after_preload: false,
            checkpoint_every: None,
            view: false,
            saturate: seg(scaled(18.0, 3), 10_000.0, 200),
            paced_rate: 20_000.0,
            paced: pace(20_000.0, 0.25, 9.0, 200),
            concurrent: false,
            mix: Mix([115, 20, 20, 20, 20, 20, 100, 20]),
            // A round on this small chain is 0.4 s; five a repetition
            // keep the reader going about as long as on the others.
            rounds: scaled(15.0, 3),
            q3_window: Some(0.25),
            reopens: 0,
        },
        // Read-only and hot where it is measured: everything resident,
        // no checkpoints; parse/plan, planner choice, executor and
        // tuple fetch dominate. Issue shape 100 000 txs in 500 blocks,
        // here at 1/3 (Q4 under `Auto` costs ~0.2 µs per chain tuple).
        "query" => Plan {
            name: "query",
            engine: paper,
            preload: seg(10, 3_200.0, 200),
            freeze_after_preload: false,
            checkpoint_every: None,
            view: false,
            saturate: seg(0, 0.0, 200),
            paced_rate: 20_000.0,
            paced: pace(20_000.0, 0.1, 6.0, 200),
            concurrent: false,
            mix: Mix([115, 20, 20, 20, 20, 20, 100, 20]),
            rounds: scaled(9.0, 3),
            q3_window: Some(0.10),
            reopens: 0,
        },
        // Read-only over a long chain of small blocks with every index
        // family frozen and a cache far smaller than the frozen index:
        // fence probes, index-block misses and `pread` dominate. Issue
        // shape 200 000 txs cut at 5 (40 000 blocks), 64 cache blocks;
        // here at 1/10 with the cache scaled alike.
        "deep" => Plan {
            name: "deep",
            engine: EngineConfig {
                max_txs: 5,
                timeout_ms: 200,
                index_cache_blocks: Some(8),
            },
            preload: seg(25, 800.0, 5),
            freeze_after_preload: true,
            checkpoint_every: None,
            view: false,
            saturate: seg(0, 0.0, 5),
            paced_rate: 2_000.0,
            paced: pace(2_000.0, 0.7, 9.0, 5),
            concurrent: false,
            mix: Mix([115, 20, 20, 20, 20, 20, 100, 20]),
            rounds: scaled(9.0, 3),
            q3_window: Some(0.04),
            reopens: 3,
        },
        // Writes beside reads on the same layers: checkpoints take the
        // family write lock and the view folds on the apply path. Issue
        // shape 50 000 preload, checkpoint every 128 blocks, 4 000 tx/s
        // for 24 s; here at 1/3 (preload and cadence) and 1/2 (window).
        // Each paced window spans one checkpoint interval.
        "mixed" => Plan {
            name: "mixed",
            engine: paper,
            preload: seg(8, 2_000.0, 200),
            // Frozen prefix + growing tail from the first read on, as
            // a node under a checkpoint cadence spends its life.
            freeze_after_preload: true,
            checkpoint_every: Some(40),
            view: true,
            saturate: seg(0, 0.0, 200),
            paced_rate: 4_000.0,
            paced: pace(4_000.0, 2.0, 9.0, 200),
            concurrent: true,
            mix: Mix([115, 20, 20, 100, 20, 20, 100, 20]),
            // Two complete rounds a repetition at the least; how many
            // there are is up to the writer, which runs for longer
            // (about seven and a half a run here — three complete ones
            // a repetition would end a second after the writer, and
            // that share of quiet-node reads moved the medians by a
            // tenth from run to run).
            rounds: scaled(6.0, 3),
            q3_window: None,
            reopens: 0,
        },
        _ => return None,
    })
}

impl Plan {
    /// Transactions the chain holds at the end of a run.
    pub fn planned_txs(&self) -> u64 {
        (self.preload.count * self.preload.txs
            + self.saturate.count * self.saturate.txs
            + self.paced.0) as u64
    }

    /// The plan as recorded in every result.
    pub fn record(&self) -> Json {
        let segs = |s: Segments| obj([("count", s.count.into()), ("txs", s.txs.into())]);
        obj([
            ("preload", segs(self.preload)),
            ("freeze_after_preload", self.freeze_after_preload.into()),
            ("checkpoint_every", self.checkpoint_every.into()),
            ("view", self.view.into()),
            ("saturate", segs(self.saturate)),
            ("paced_rate_tps", self.paced_rate.into()),
            ("paced_txs", self.paced.0.into()),
            ("concurrent", self.concurrent.into()),
            (
                "mix_per_round",
                Json::Obj(
                    KINDS
                        .iter()
                        .zip(self.mix.0)
                        .map(|(k, n)| (format!("{k:?}"), n.into()))
                        .collect(),
                ),
            ),
            ("paced_windows", self.paced.1.into()),
            ("read_rounds", self.rounds.into()),
            ("q3_window_share", self.q3_window.into()),
            (
                "generator_threads",
                (1 + usize::from(self.concurrent)).into(),
            ),
        ])
    }
}

/// A node with its workload's chain loaded, and the oracle for it.
pub struct Loaded {
    /// The running node.
    pub bed: Bed,
    /// Every row submitted so far.
    pub oracle: Oracle,
    gen: RowGen,
    /// Throughput of every saturating segment so far.
    pub segment_tps: Vec<f64>,
    /// Write outcomes so far.
    pub writes: Outcomes,
    /// Encoded bytes of every honest transaction submitted.
    pub user_bytes: u64,
    last_end_ms: u64,
}

impl Loaded {
    /// Opens segment `seg`: waits out the millisecond the previous one
    /// closed in, so no two segments share a timestamp, then builds and
    /// signs `n` rows with `ts = now`.
    pub fn open_segment(&mut self, n: usize) -> (u64, Vec<(SignedTx, bool)>) {
        while crate::engine::wall_ms() <= self.last_end_ms {
            std::thread::yield_now();
        }
        let start_ms = crate::engine::wall_ms();
        let seg = self.oracle.segments().len() as u32;
        let rows = self.gen.rows(n, seg);
        self.oracle.push(&rows);
        let builder = self.bed.builder();
        let txs: Vec<(SignedTx, bool)> =
            rows.iter().map(|r| (builder.build(r), r.forged)).collect();
        self.user_bytes += txs
            .iter()
            .filter(|(_, forged)| !forged)
            .map(|(tx, _)| tx.bytes as u64)
            .sum::<u64>();
        (start_ms, txs)
    }

    /// Closes the segment opened at `start_ms`, once all of it is applied.
    pub fn close_segment(&mut self, start_ms: u64, outcomes: &Outcomes) {
        self.last_end_ms = crate::engine::wall_ms();
        let seg = self.oracle.segments().len() as u32;
        self.oracle.close_segment(
            seg,
            Segment {
                start_ms,
                end_ms: self.last_end_ms,
            },
        );
        self.writes.absorb(outcomes);
    }

    /// Loads one saturating segment of `n` transactions.
    pub fn saturate_segment(&mut self, n: usize) {
        let (start_ms, txs) = self.open_segment(n);
        let run = saturate(&self.bed, txs);
        self.segment_tps.push(run.tps);
        self.close_segment(start_ms, &run.outcomes);
    }
}

/// Set-up: a fresh store, orderer and node; schema through SQL; both
/// layered + ALI indexes; the preload; and whatever the plan asks for
/// once the preload is in (freeze, checkpoint cadence, view).
pub fn set_up(plan: &Plan, seed: u64, dir: &Path) -> Result<Loaded, String> {
    let _ = std::fs::remove_dir_all(dir);
    let bed = Bed::start(dir, plan.engine)?;
    bed.create_schema(amount_sample(seed, HISTOGRAM_SAMPLE))?;
    let mut loaded = Loaded {
        bed,
        oracle: Oracle::default(),
        gen: RowGen::new(seed, Domain::for_chain(plan.planned_txs())),
        segment_tps: Vec::new(),
        writes: Outcomes::default(),
        user_bytes: 0,
        last_end_ms: 0,
    };
    for _ in 0..plan.preload.count {
        loaded.saturate_segment(plan.preload.txs);
    }
    if plan.freeze_after_preload {
        loaded.bed.checkpoint_indexes()?;
    }
    if let Some(every) = plan.checkpoint_every {
        loaded.bed.set_checkpoint_every(every);
    }
    if plan.view {
        loaded.bed.register_org1_transfer_view()?;
    }
    Ok(loaded)
}

/// What one untraced run produced.
pub struct Run {
    /// Seconds each set-up took.
    pub setups: Vec<f64>,
    /// Saturating-segment throughputs on the measured node.
    pub segment_tps: Vec<f64>,
    /// The paced phase.
    pub paced: PacedRun,
    /// The read client.
    pub reads: ReadStats,
    /// All write outcomes (preload, saturate, paced).
    pub writes: Outcomes,
    /// Store directory bytes ÷ encoded bytes of applied tuples, per
    /// repetition.
    pub disk_bytes_per_user_byte: Vec<f64>,
    /// Resident index megabytes at the end, per repetition.
    pub index_mem_mb: Vec<f64>,
    /// Timed reopens (seconds), when the plan asks for them.
    pub reopen_s: Vec<f64>,
    /// Engine settings in force.
    pub engine: Vec<(&'static str, f64)>,
    /// Correctness checks that failed (empty = correct).
    pub violations: Vec<String>,
    /// Timing conditions under which the numbers mean less than they
    /// should. They depend on the host, not on what the engine returned,
    /// so they fail a run only under `--strict`.
    pub warnings: Vec<String>,
    /// Applied height at the end.
    pub height: u64,
}

impl Plan {
    /// This plan's measured phases split over `reps` repetitions: each
    /// repetition sets up the same chain from the same seed and measures
    /// its share of the segments, windows and rounds.
    fn share(&self, reps: usize) -> Plan {
        let (txs, windows) = self.paced;
        let share = windows.div_ceil(reps);
        Plan {
            saturate: Segments {
                count: self.saturate.count.div_ceil(reps),
                ..self.saturate
            },
            paced: (txs / windows * share, share),
            rounds: self.rounds.div_ceil(reps),
            reopens: self.reopens.div_ceil(reps),
            ..self.clone()
        }
    }
}

/// One repetition: a timed set-up, then the measured phases on it, then
/// the end-of-run checks. `plan` is already this repetition's share.
fn repetition(plan: &Plan, seed: u64, dir: &Path) -> Result<Run, String> {
    let start = Instant::now();
    let mut loaded = set_up(plan, seed, dir)?;
    let setup_secs = start.elapsed().as_secs_f64();

    let read_only = |loaded: &mut Loaded| {
        let horizon = Horizon::after(loaded.oracle.len());
        let mut reader = Reader::new(
            &loaded.bed,
            &mut loaded.oracle,
            &horizon,
            seed,
            plan.q3_window,
        );
        for _ in 0..plan.rounds {
            reader.round(&plan.mix);
        }
        reader.stats
    };
    let early_reads = (!plan.concurrent).then(|| read_only(&mut loaded));

    for _ in 0..plan.saturate.count {
        loaded.saturate_segment(plan.saturate.txs);
    }

    let (start_ms, txs) = loaded.open_segment(plan.paced.0);
    let (paced_run, reads) = match early_reads {
        Some(reads) => (
            paced(&loaded.bed, txs, plan.paced_rate, plan.paced.1, &Unobserved),
            reads,
        ),
        None => {
            let horizon = Horizon::after(loaded.oracle.len() - plan.paced.0 as u32);
            let bed = &loaded.bed;
            let oracle = &mut loaded.oracle;
            std::thread::scope(|s| {
                let writer = s.spawn(|| paced(bed, txs, plan.paced_rate, plan.paced.1, &horizon));
                let mut reader = Reader::new(bed, oracle, &horizon, seed, plan.q3_window);
                // Read for as long as the writer writes: reads issued
                // after it is done would be reads of a quiet node.
                let mut complete = 0;
                while complete < plan.rounds || !writer.is_finished() {
                    let enough = complete >= plan.rounds;
                    complete += usize::from(
                        reader.round_while(&plan.mix, || !(enough && writer.is_finished())),
                    );
                }
                (writer.join().expect("writer thread"), reader.stats)
            })
        }
    };
    loaded.close_segment(start_ms, &paced_run.outcomes);

    // End-of-run checks.
    let mut violations = Vec::new();
    let writes = loaded.writes;
    let height = loaded.bed.height();
    match writes.last_seq {
        // Acked sequence numbers are chain heights, so the last one
        // bounds the chain.
        Some(seq) if height != seq + 1 => violations.push(format!(
            "applied height {height} but last acked block {seq}"
        )),
        None => violations.push("no transaction was acknowledged".into()),
        _ => {}
    }
    if let Err(e) = loaded.bed.verify_chain() {
        violations.push(format!("verify_chain: {e}"));
    }
    if writes.forged_accepted > 0 {
        violations.push(format!("{} forged MACs admitted", writes.forged_accepted));
    }
    if writes.forged_refused == 0 {
        violations.push("no forged MAC was offered to admission".into());
    }
    if writes.applied != loaded.oracle.honest(loaded.oracle.len()) as u64 {
        violations.push(format!(
            "{} rows applied, oracle holds {} honest rows",
            writes.applied,
            loaded.oracle.honest(loaded.oracle.len())
        ));
    }
    if !reads.tamper_offered || !reads.tamper_rejected {
        violations.push("tampered authenticated answer was not rejected".into());
    }
    // A backlog that grows means the offered rate is not sustained.
    // Allowed at the end: twice the midpoint's plus two blocks, or a
    // quarter second of arrivals (one host hiccup), whichever is more.
    let backlog_allowed = (2 * paced_run.in_flight_mid + 2 * plan.engine.max_txs)
        .max((plan.paced_rate / 4.0) as usize);
    let mut warnings = Vec::new();
    if paced_run.in_flight_end > backlog_allowed {
        warnings.push(format!(
            "paced backlog grew: {} in flight at midpoint, {} at end",
            paced_run.in_flight_mid, paced_run.in_flight_end
        ));
    }
    let index_mem_mb = loaded.bed.index_memory_bytes() as f64 / 1e6;
    let engine = loaded.bed.config_record();
    loaded.bed.shutdown();
    let disk = crate::engine::disk_bytes(dir) as f64 / loaded.user_bytes.max(1) as f64;
    let mut reopen_s = Vec::new();
    for _ in 0..plan.reopens {
        let (secs, reopened) = crate::engine::timed_reopen(dir, plan.engine.index_cache_blocks)?;
        if reopened != height {
            violations.push(format!("reopened at height {reopened}, was {height}"));
        }
        reopen_s.push(secs);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Run {
        setups: vec![setup_secs],
        segment_tps: loaded.segment_tps,
        paced: paced_run,
        reads,
        writes,
        disk_bytes_per_user_byte: vec![disk],
        index_mem_mb: vec![index_mem_mb],
        reopen_s,
        engine,
        violations,
        warnings,
        height,
    })
}

/// Runs `plan` once, untraced, as `reps` repetitions of set-up →
/// measure → check, each on a fresh store from the same seed. Every
/// repetition contributes its set-up time and its rounds; metrics are
/// medians over all of them, so no number rests on one store instance,
/// one heap layout or one stretch of the host's time.
pub fn run(
    plan: &Plan,
    seed: u64,
    work: &Path,
    reps: usize,
    calib: &mut crate::env::Calibration,
) -> Result<Run, String> {
    let dir: PathBuf = work.join(plan.name);
    let reps = reps.max(1);
    let share = plan.share(reps);
    let mut run = repetition(&share, seed, &dir)?;
    for rep in 1..reps {
        calib.point();
        let next = repetition(&share, seed, &dir)?;
        run.setups.extend(next.setups);
        run.segment_tps.extend(next.segment_tps);
        run.paced.windows.extend(next.paced.windows);
        run.paced.gen_late.merge(&next.paced.gen_late);
        run.paced.outcomes.absorb(&next.paced.outcomes);
        run.paced.in_flight_mid = run.paced.in_flight_mid.max(next.paced.in_flight_mid);
        run.paced.in_flight_end = run.paced.in_flight_end.max(next.paced.in_flight_end);
        run.reads.rounds.extend(next.reads.rounds);
        run.reads.attempted += next.reads.attempted;
        run.reads.failed += next.reads.failed;
        run.reads.failures.extend(next.reads.failures);
        run.writes.absorb(&next.writes);
        run.disk_bytes_per_user_byte
            .extend(next.disk_bytes_per_user_byte);
        run.index_mem_mb.extend(next.index_mem_mb);
        run.reopen_s.extend(next.reopen_s);
        let tag = |v: String| format!("repetition {}: {v}", rep + 1);
        run.violations.extend(next.violations.into_iter().map(tag));
        run.warnings.extend(next.warnings.into_iter().map(tag));
    }
    Ok(run)
}

/// One reported number.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value; `None` when too few samples support it.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub samples: u64,
}

fn per_unit(unit: &str) -> f64 {
    match unit {
        "ms" => 1e6,
        "us" => 1e3,
        _ => unreachable!("latency units are ms or us"),
    }
}

/// A latency percentile of the paced phase: taken inside every window,
/// then the median across windows, so that one stalled window (a host
/// hiccup of a tenth of a second puts hundreds of transactions in the
/// tail) does not set the figure. `None` if any window has too few
/// samples.
fn across_windows<'a>(
    name: &'static str,
    unit: &'static str,
    windows: impl Iterator<Item = &'a Hist>,
    q: f64,
) -> Metric {
    let mut samples = 0;
    let per_window: Option<Vec<f64>> = windows
        .map(|h| {
            samples += h.count();
            h.quantile(q).map(|ns| ns as f64 / per_unit(unit))
        })
        .collect();
    Metric {
        name,
        unit,
        value: per_window.and_then(|v| median(&v)),
        samples,
    }
}

/// A latency percentile over every sample of the run, the rounds (or
/// windows) pooled. Read rounds are interleaved through the run, so the
/// pool is as spread over the host's moods as the rounds are; and on
/// `mixed`, where the chain grows under the reader and every round is
/// slower than the one before, it is the percentile of the whole paced
/// period — a median across such rounds would be the median of the few
/// in the middle.
fn pooled<'a>(
    name: &'static str,
    unit: &'static str,
    parts: impl Iterator<Item = &'a Hist>,
    q: f64,
) -> Metric {
    let mut all = Hist::default();
    for h in parts {
        all.merge(h);
    }
    Metric {
        name,
        unit,
        value: all.quantile(q).map(|ns| ns as f64 / per_unit(unit)),
        samples: all.count(),
    }
}

impl Run {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let read = |name, unit, k: Kind| {
            pooled(
                name,
                unit,
                self.reads.rounds.iter().map(|r| &r[k as usize]),
                0.50,
            )
        };
        let per_rep = |name, unit, v: &[f64]| Metric {
            name,
            unit,
            value: median(v),
            samples: v.len() as u64,
        };
        vec![
            per_rep("setup_s", "s", &self.setups),
            across_windows(
                "commit_p50_ms",
                "ms",
                self.paced.windows.iter().map(|w| &w.commit),
                0.50,
            ),
            read("q3_trace_p50_us", "us", Kind::Q3),
            read("q4_range_p50_us", "us", Kind::Q4Range),
            read("q4_point_p50_us", "us", Kind::Q4Point),
            read("q5_join_p50_ms", "ms", Kind::Q5),
            read("q6_onoff_p50_ms", "ms", Kind::Q6),
            read("q7_block_p50_us", "us", Kind::Q7),
            read("auth_range_p50_ms", "ms", Kind::Auth),
            per_rep(
                "disk_bytes_per_user_byte",
                "ratio",
                &self.disk_bytes_per_user_byte,
            ),
            per_rep("index_mem_mb", "MB", &self.index_mem_mb),
        ]
    }

    /// What the issue lists end to end but this host cannot hold to a
    /// bound (run-to-run quartile spread at or above 0.25 on unchanged
    /// code; for `commit_p99_ms` on `deep` and `mixed`, where the tail
    /// is a host hiccup or one checkpoint's `fsync`): reported in the
    /// result file, not in `BENCHMARK.json`.
    pub fn unbounded(&self) -> Vec<Metric> {
        let windows = || self.paced.windows.iter();
        let commit = || windows().map(|w| &w.commit);
        let q4_range = self.reads.rounds.iter().map(|r| &r[Kind::Q4Range as usize]);
        let commit_max = commit().map(Hist::max).max().unwrap_or(0);
        vec![
            Metric {
                name: "ingest_tps",
                unit: "tx/s",
                value: median(&self.segment_tps),
                samples: self.segment_tps.len() as u64,
            },
            across_windows(
                "apply_lag_p50_ms",
                "ms",
                windows().map(|w| &w.apply_lag),
                0.50,
            ),
            across_windows("commit_p99_ms", "ms", commit(), 0.99),
            pooled("q4_range_p99_us", "us", q4_range, 0.99),
            pooled("commit_whole_run_p99_ms", "ms", commit(), 0.99),
            Metric {
                name: "commit_max_ms",
                unit: "ms",
                value: Some(commit_max as f64 / 1e6),
                samples: commit().map(Hist::count).sum(),
            },
            pooled(
                "order_wait_p50_ms",
                "ms",
                windows().map(|w| &w.order_wait),
                0.50,
            ),
            pooled(
                "gen_late_p99_ms",
                "ms",
                std::iter::once(&self.paced.gen_late),
                0.99,
            ),
        ]
    }

    /// Every round's own median per read kind and every window's own
    /// commit percentiles (µs), so a reader of the result file can see
    /// what the quartile was taken over.
    pub fn per_round(&self) -> Json {
        let us = |h: &Hist, q| Json::from(h.quantile(q).map(|ns| ns as f64 / 1e3));
        let mut fields: Vec<(String, Json)> = KINDS
            .iter()
            .map(|&k| {
                let per_round = self.reads.rounds.iter().map(|r| us(&r[k as usize], 0.5));
                (format!("{k:?}"), Json::Arr(per_round.collect()))
            })
            .collect();
        for (name, q) in [("commit_p50", 0.5), ("commit_p99", 0.99)] {
            let per_window = self.paced.windows.iter().map(|w| us(&w.commit, q));
            fields.push((name.to_string(), Json::Arr(per_window.collect())));
        }
        Json::Obj(fields)
    }

    /// Operations attempted: every submitted transaction and every read.
    pub fn attempted(&self) -> u64 {
        self.writes.attempted + self.reads.attempted
    }

    /// Operations that failed: refused, timed out or oracle-mismatching.
    /// Forged transactions refused at admission are expected refusals.
    pub fn failed(&self) -> u64 {
        self.writes.failed + self.writes.forged_accepted + self.reads.failed
    }
}
