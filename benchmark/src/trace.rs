//! The traced pass: per-layer attribution from outside the engine.
//!
//! No engine crate carries a span or a counter for this; every span
//! here is recorded in the harness around a call into a layer's public
//! function. One operation is executed twice — once through its root
//! (`node.execute_as`, `Ledger::append_ordered`) and once as the chain
//! of public calls the root makes (`parse` → `plan` → `Executor::execute`;
//! `seal_ordered` → `persist_block` → `index_appended`) — and the second
//! execution's pieces are the root's children. Which goes first
//! alternates per sample so that warm caches favour neither. A layer's
//! self time is its span minus its children, and `trace.*_coverage`
//! (Σ children ÷ root per sample, median over samples) should land in
//! [0.85, 1.15]: outside it the attribution does not explain the
//! end-to-end time. Coverage is a ratio of timings — a busy host moves
//! it while every output stays right — so leaving the band is a warning,
//! and fails the run only under `--strict`.
//!
//! End-to-end metrics are never taken from this pass.

use crate::engine::{
    self, Access, BareIndexes, BareMempool, BareStore, Bed, CryptoProbe, IoCounts, Param, Twin,
    TxBuilder, Q2_SQL, Q3_VIEW_SQL, Q3_WINDOW_SQL, Q4_POINT_SQL, Q4_RANGE_SQL, Q7_SQL,
};
use crate::env::Calibration;
use crate::gen::{amount_sample, Domain, Rng, RowGen, DONEEINFO_ROWS};
use crate::hist::median;
use crate::json::{obj, Json};
use crate::load::{paced, Unobserved};
use crate::queries::RangeDraw;
use crate::workloads::{set_up, Loaded, Metric, Plan};
use std::path::Path;
use std::time::Instant;

/// Coverage outside this band is warned about (fails under `--strict`).
const COVERAGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;
/// Root/children samples per read statement kind.
const READ_SAMPLES: usize = 24;
/// Samples of the layered Q4 decomposition (also the counted pass).
const PROBE_SAMPLES: usize = 40;
/// Samples per forced strategy.
const STRATEGY_SAMPLES: usize = 16;
/// Tuples the write-path trace appends to each twin.
const WRITE_TUPLES: usize = 8_000;
/// Repetitions of each standalone micro-measurement.
const MICRO_REPS: usize = 200;

struct Span {
    op: u32,
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log, written out when the pass ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ops: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id: spans of one sampled operation share it.
    fn op(&mut self) -> u32 {
        self.ops += 1;
        self.ops
    }

    /// Runs `f` inside a span; returns its result and the span's id.
    fn time<R>(
        &mut self,
        op: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (result, self.spans.len() as u32 - 1)
    }

    /// Re-parents a span recorded before its root existed (children-
    /// first samples).
    fn adopt(&mut self, children: &[u32], root: u32) {
        for &c in children {
            self.spans[c as usize].parent = Some(root);
        }
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Σ children ÷ root per sampled operation, then the median over
    /// operations: one stalled span among a few dozen samples must not
    /// decide whether the attribution adds up.
    fn coverage(&self, root: &str) -> (f64, u64) {
        let ratios: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, r)| {
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|c| c.op == r.op && c.parent == Some(id as u32))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                children as f64 / (r.end_ns - r.start_ns).max(1) as f64
            })
            .collect();
        (median(&ratios).unwrap_or(f64::NAN), ratios.len() as u64)
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", id.into()),
                        ("op", (s.op as u64).into()),
                        ("name", s.name.into()),
                        ("parent", s.parent.map(|p| p as u64).into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                    ])
                })
                .collect(),
        )
    }
}

/// What the traced pass produced.
pub struct Traced {
    /// Checks that failed (empty = correct).
    pub violations: Vec<String>,
    /// Timing conditions that weaken the attribution (see the module
    /// doc); they fail the run only under `--strict`.
    pub warnings: Vec<String>,
    /// Names of metrics that are exact counts for this seed.
    pub exact: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The span file's content.
    pub spans: Json,
}

struct Pass<'a> {
    bed: &'a Bed,
    tr: Tracer,
    rng: Rng,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    ranges: RangeDraw,
    /// Per-query counts from the forced-layered pass.
    probe_io: Vec<(IoCounts, usize, usize)>,
    /// (vo bytes, rows) per authenticated sample.
    vo: Vec<(usize, usize)>,
    /// Blocks each forced-`Scan` Q4 read.
    scan_blocks: Vec<u64>,
}

impl Pass<'_> {
    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.violations.len() < 8 {
                    self.violations.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    fn range(&mut self) -> (i64, i64) {
        self.ranges.draw(&mut self.rng)
    }

    /// One statement, executed through its root and through the chain
    /// of public calls the root makes.
    fn read_sample(&mut self, sql: &str, params: &[Param], root_first: bool) {
        let op = self.tr.op();
        let bed = self.bed;
        let mut root_rows = None;
        let mut root_id = None;
        if root_first {
            let (r, id) = self.tr.time(op, "node.execute_as", None, || {
                bed.query(sql, params, Access::Auto)
            });
            root_rows = self.check(sql, r).map(|rows| rows.len());
            root_id = Some(id);
        }
        let (parsed, a) = self.tr.time(op, "sql.parse", root_id, || bed.parse(sql));
        let Some(parsed) = self.check(sql, parsed) else {
            return;
        };
        let (planned, b) = self
            .tr
            .time(op, "sql.plan", root_id, || bed.plan(&parsed, params));
        let Some(planned) = self.check(sql, planned) else {
            return;
        };
        let (rows, c) = self.tr.time(op, "core.exec", root_id, || {
            bed.exec(&planned, Access::Auto)
        });
        let child_rows = self.check(sql, rows);
        if !root_first {
            let (r, id) = self.tr.time(op, "node.execute_as", None, || {
                bed.query(sql, params, Access::Auto)
            });
            root_rows = self.check(sql, r).map(|rows| rows.len());
            self.tr.adopt(&[a, b, c], id);
        }
        if root_rows != child_rows {
            self.violations.push(format!(
                "{sql}: root returned {root_rows:?} rows, parse→plan→execute {child_rows:?}"
            ));
        }
    }

    /// The layered Q4 path: `Executor::execute` under forced `Layered`
    /// as root, and the steps `executor/range.rs` takes as children,
    /// with `IoStats` deltas around the root.
    fn probe_sample(&mut self, root_first: bool) {
        let (lo, hi) = self.range();
        let params = [Param::Amount(lo), Param::Amount(hi)];
        let op = self.tr.op();
        let bed = self.bed;
        let planned = bed.parse(Q4_RANGE_SQL).and_then(|p| bed.plan(&p, &params));
        let Some(planned) = self.check("plan q4", planned) else {
            return;
        };
        let root = |pass: &mut Pass<'_>| {
            let before = bed.io();
            let (rows, id) = pass.tr.time(op, "core.exec_layered", None, || {
                bed.exec(&planned, Access::Layered)
            });
            let io = bed.io().since(&before);
            (pass.check("exec layered", rows), id, io)
        };
        let mut root_out = root_first.then(|| root(self));
        let parent = root_out.as_ref().map(|r| r.1);
        let (_, a) = self
            .tr
            .time(op, "core.window_mask", parent, || bed.step_window_mask());
        let (cand, b) = self.tr.time(op, "index.candidates", parent, || {
            bed.step_candidates(lo, hi)
        });
        let Some(cand) = self.check("candidates", cand) else {
            return;
        };
        let (probe, c) = self.tr.time(op, "index.search", parent, || {
            bed.step_search(lo, hi, &cand)
        });
        let Some(probe) = self.check("search", probe) else {
            return;
        };
        let (fetched, d) = self
            .tr
            .time(op, "storage.fetch", parent, || bed.step_fetch(&probe));
        let fetched = self.check("fetch", fetched);
        if root_out.is_none() {
            let out = root(self);
            self.tr.adopt(&[a, b, c, d], out.1);
            root_out = Some(out);
        }
        let (rows, _, io) = root_out.expect("root ran");
        if let Some(rows) = rows {
            if fetched != Some(probe.len()) {
                self.violations.push(format!(
                    "fetch returned {fetched:?} of {} tuples",
                    probe.len()
                ));
            }
            self.probe_io.push((io, probe.candidate_blocks, rows));
        }
    }

    fn strategy_sample(&mut self, access: Access, name: &'static str) {
        let (lo, hi) = self.range();
        let params = [Param::Amount(lo), Param::Amount(hi)];
        let op = self.tr.op();
        let bed = self.bed;
        let before = bed.io();
        let (r, _) = self
            .tr
            .time(op, name, None, || bed.query(Q4_RANGE_SQL, &params, access));
        if access == Access::Scan {
            self.scan_blocks.push(bed.io().since(&before).blocks_read);
        }
        self.check(name, r);
    }

    fn auth_sample(&mut self) {
        let (lo, hi) = self.range();
        let op = self.tr.op();
        let bed = self.bed;
        let (answer, _) = self
            .tr
            .time(op, "core.auth_serve", None, || bed.auth_serve(lo, hi));
        let Some(answer) = self.check("auth serve", answer) else {
            return;
        };
        let (digest, _) = self
            .tr
            .time(op, "core.auth_aux", None, || bed.auth_aux(&answer));
        let Some(digest) = self.check("auth aux", digest) else {
            return;
        };
        let (verified, _) = self
            .tr
            .time(op, "core.auth_verify", None, || answer.verify(&digest));
        self.check("auth verify", verified);
        self.vo.push((answer.vo_bytes(), answer.len()));
        let (blocks, _) = self
            .tr
            .time(op, "index.ali_query", None, || bed.ali_query(lo, hi));
        if let Some(blocks) = self.check("ali query", blocks) {
            if blocks != answer.vo_blocks() {
                self.violations.push(format!(
                    "ALI query visited {blocks} blocks, served VO {}",
                    answer.vo_blocks()
                ));
            }
        }
    }
}

/// The write path on twin ledgers: `append_ordered` as root on one,
/// its three stages on the other, and the layer calls beneath the
/// stages standalone. Returns per-tuple bytes written and the twins.
fn write_trace(
    plan: &Plan,
    seed: u64,
    work: &Path,
    tr: &mut Tracer,
    violations: &mut Vec<String>,
) -> Result<WriteSide, String> {
    let cut = plan.engine.max_txs;
    let blocks = (WRITE_TUPLES / cut).max(1);
    let sample = || amount_sample(seed, 2_000);
    let cache = plan.engine.index_cache_blocks;
    let whole = Twin::open(&work.join("twin-root"), cache, sample(), plan.view)?;
    let staged = Twin::open(&work.join("twin-stages"), cache, sample(), plan.view)?;
    let piped = Twin::open(&work.join("twin-pipeline"), cache, sample(), plan.view)?;
    let bare_store = BareStore::open(&work.join("bare-store"))?;
    let mut bare_indexes = BareIndexes::new(sample());
    let builder = TxBuilder::new();
    let mut gen = RowGen::new(seed ^ 0x77, Domain::for_chain(plan.planned_txs()));
    let mut pipeline_feed = Vec::with_capacity(3 * blocks);
    let mut first_tid = 1u64;
    for seq in 0..(3 * blocks) as u64 {
        let txs = builder.build_honest(&gen.rows(cut, 0));
        let ordered = TxBuilder::ordered_block(seq, first_tid, txs);
        first_tid += cut as u64;
        pipeline_feed.push(ordered.clone());
        if seq >= blocks as u64 {
            continue;
        }
        let op = tr.op();
        let root_first = seq % 2 == 0;
        let for_root = ordered.clone();
        let mut root_id = None;
        if root_first {
            let (r, id) = tr.time(op, "core.append_ordered", None, || {
                whole.append_ordered(for_root.clone())
            });
            r?;
            root_id = Some(id);
        }
        let (sealed, a) = tr.time(op, "core.seal", root_id, || staged.seal(ordered));
        let (persisted, b) = tr.time(op, "core.persist", root_id, || staged.persist(sealed?));
        let persisted = persisted?;
        let (_, c) = tr.time(op, "core.index", root_id, || staged.index(&persisted));
        if !root_first {
            let (r, id) = tr.time(op, "core.append_ordered", None, || {
                whole.append_ordered(for_root)
            });
            r?;
            tr.adopt(&[a, b, c], id);
        }
        // Beneath the stages, each layer's own call on its own state.
        let leaves = persisted.leaves();
        tr.time(op, "crypto.merkle_root", Some(a), || {
            engine::merkle(&leaves)
        });
        tr.time(op, "storage.append", Some(b), || {
            bare_store.append(&persisted)
        })
        .0?;
        tr.time(op, "index.layered_update", Some(c), || {
            bare_indexes.update_layered(&persisted)
        });
        tr.time(op, "index.ali_update", Some(c), || {
            bare_indexes.update_ali(&persisted)
        });
        if seq % 8 == 0 {
            let (encoded, _) = tr.time(op, "types.encode_block", None, || persisted.encode());
            tr.time(op, "types.decode_block", None, || {
                engine::decode_block(&encoded)
            })
            .0?;
        }
    }
    if whole.height() != staged.height() {
        violations.push(format!(
            "twins diverged: {} vs {} blocks",
            whole.height(),
            staged.height()
        ));
    }
    let bytes_written_per_tx = staged.disk_bytes() as f64 / (blocks * cut) as f64;
    let op = tr.op();
    let (checkpoint_bytes, _) = tr.time(op, "core.checkpoint", None, || whole.checkpoint());
    let checkpoint_bytes = checkpoint_bytes?;
    let reopen_s = whole.reopen()?;
    let pipeline_tps = piped.pipeline_tps(pipeline_feed)?;
    Ok(WriteSide {
        bytes_written_per_tx,
        checkpoint_bytes,
        reopen_s,
        pipeline_tps,
        blocks,
    })
}

struct WriteSide {
    bytes_written_per_tx: f64,
    checkpoint_bytes: u64,
    reopen_s: f64,
    pipeline_tps: f64,
    blocks: usize,
}

/// Standalone calls into `crypto`, `consensus` (mempool) and `offchain`.
fn micro(plan: &Plan, seed: u64, bed: &Bed, tr: &mut Tracer) -> Result<f64, String> {
    let builder = TxBuilder::new();
    let mut gen = RowGen::new(seed ^ 0x99, Domain::for_chain(plan.planned_txs()));
    let honest = |gen: &mut RowGen, n: usize| builder.build_honest(&gen.rows(n, 0));
    let probe = CryptoProbe::new(&honest(&mut gen, 1)[0]);
    let op = tr.op();
    for _ in 0..MICRO_REPS {
        tr.time(op, "crypto.sign", None, || probe.sign());
        if !tr.time(op, "crypto.verify", None, || probe.verify()).0 {
            return Err("MAC did not verify".into());
        }
    }
    let start = Instant::now();
    for _ in 0..16 {
        probe.sha256_mib();
    }
    let sha256_mb_s = 16.0 * (1u64 << 20) as f64 / 1e6 / start.elapsed().as_secs_f64();

    let cut = plan.engine.max_txs;
    let pool = BareMempool::new(cut);
    for _ in 0..(MICRO_REPS / 10).max(4) {
        for tx in honest(&mut gen, cut) {
            tr.time(op, "consensus.submit", None, || pool.submit(tx));
        }
        let (admitted, _) = tr.time(op, "consensus.cut", None, || pool.cut());
        if admitted != cut {
            return Err(format!("mempool admitted {admitted} of {cut}"));
        }
    }
    let mut rng = Rng::new(seed).fork(5);
    for _ in 0..MICRO_REPS {
        let donee = rng.below(DONEEINFO_ROWS);
        let (rows, _) = tr.time(op, "offchain.lookup", None, || bed.offchain_lookup(donee));
        if rows? != 1 {
            return Err(format!("doneeinfo has no row e{donee}"));
        }
    }
    Ok(sha256_mb_s)
}

fn median_of(tr: &Tracer, span: &str, per_unit: f64) -> (Option<f64>, u64) {
    let d = tr.durations(span);
    (median(&d).map(|ns| ns / per_unit), d.len() as u64)
}

/// Runs the traced pass for `plan`.
pub fn run(plan: &Plan, seed: u64, work: &Path, calib: &mut Calibration) -> Result<Traced, String> {
    let started = Instant::now();
    let mut loaded: Loaded = set_up(plan, seed, &work.join(plan.name))?;
    let visible = loaded.oracle.len();
    let segments = loaded.oracle.segments().to_vec();
    let height = loaded.bed.height();
    let mut pass = Pass {
        bed: &loaded.bed,
        tr: Tracer::new(),
        rng: Rng::new(seed).fork(4),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        ranges: RangeDraw::for_chain(&loaded.oracle, visible),
        probe_io: Vec::new(),
        vo: Vec::new(),
        scan_blocks: Vec::new(),
    };

    // Counted pass first: forced `Layered`, one client, no timers in
    // the engine's way — its counts depend on nothing but the seed.
    for i in 0..PROBE_SAMPLES {
        pass.probe_sample(i % 2 == 0);
    }
    for _ in 0..STRATEGY_SAMPLES {
        pass.strategy_sample(Access::Auto, "core.q4_auto");
        pass.strategy_sample(Access::Scan, "core.q4_scan");
        pass.strategy_sample(Access::Bitmap, "core.q4_bitmap");
        pass.strategy_sample(Access::Layered, "core.q4_layered");
    }
    for i in 0..READ_SAMPLES {
        let root_first = i % 2 == 0;
        let (lo, hi) = pass.range();
        pass.read_sample(
            Q4_RANGE_SQL,
            &[Param::Amount(lo), Param::Amount(hi)],
            root_first,
        );
        let amount = loaded.oracle.some_amount(&mut pass.rng, visible);
        pass.read_sample(Q4_POINT_SQL, &[Param::Amount(amount)], root_first);
        match plan.q3_window {
            None => pass.read_sample(Q3_VIEW_SQL, &[], root_first),
            Some(_) => {
                let s = segments[pass.rng.below(segments.len() as u64) as usize];
                let window = [Param::Int(s.start_ms), Param::Int(s.end_ms)];
                pass.read_sample(Q3_WINDOW_SQL, &window, root_first);
            }
        }
        let bid = pass.rng.below(height);
        pass.read_sample(Q7_SQL, &[Param::Int(bid)], root_first);
        pass.read_sample(Q2_SQL, &[], root_first);
        let op = pass.tr.op();
        let bed = pass.bed;
        let (r, _) = pass
            .tr
            .time(op, "storage.read_block", None, || bed.read_block(bid));
        pass.check("read_block", r);
        let (r, _) = pass.tr.time(op, "core.q2_trace", None, || {
            bed.query(Q2_SQL, &[], Access::Auto)
        });
        pass.check("q2", r);
        pass.auth_sample();
    }
    calib.point();

    let Pass {
        mut tr,
        mut violations,
        mut attempted,
        mut failed,
        probe_io,
        vo,
        scan_blocks,
        ..
    } = pass;

    let write = write_trace(plan, seed, work, &mut tr, &mut violations)?;
    let sha256_mb_s = micro(plan, seed, &loaded.bed, &mut tr)?;
    calib.point();

    // A short paced phase on the live node: how long ordering takes
    // from a transaction's due time, and how late the generator ran.
    let honest_before = loaded.oracle.honest(loaded.oracle.len()) as f64;
    let blocks_before = loaded.bed.height();
    // At most one second's worth, in whole blocks.
    let paced_txs = plan.paced.0.min(plan.paced_rate as usize);
    let paced_txs = paced_txs - paced_txs % plan.engine.max_txs;
    let (start_ms, txs) = loaded.open_segment(paced_txs);
    let paced_run = paced(&loaded.bed, txs, plan.paced_rate, 1, &Unobserved);
    loaded.close_segment(start_ms, &paced_run.outcomes);
    attempted += paced_run.outcomes.attempted;
    failed += paced_run.outcomes.failed + paced_run.outcomes.forged_accepted;
    // Mean tuples per block over the preload (set-up's three CREATE
    // blocks hold one tuple each and are left out).
    let batch_txs = honest_before / (blocks_before.saturating_sub(3)).max(1) as f64;

    // View serve last: registering the view changes what `Auto` does
    // with this TRACE from here on.
    loaded.bed.register_org1_transfer_view()?;
    let op = tr.op();
    for _ in 0..MICRO_REPS {
        let bed = &loaded.bed;
        let (r, _) = tr.time(op, "core.view_serve", None, || {
            bed.query(Q3_VIEW_SQL, &[], Access::Auto)
        });
        attempted += 1;
        match r {
            Ok(rows) if rows.len() == loaded.oracle.q3(None, loaded.oracle.len()) => {}
            Ok(rows) => {
                failed += 1;
                violations.push(format!("view served {} rows", rows.len()));
            }
            Err(e) => {
                failed += 1;
                violations.push(e);
            }
        }
    }
    if let Err(e) = loaded.bed.verify_chain() {
        violations.push(format!("verify_chain: {e}"));
    }
    loaded.bed.shutdown();
    calib.point();

    // Coverage: do the children explain the roots?
    let (read_coverage, read_ops) = tr.coverage("node.execute_as");
    let (write_coverage, write_ops) = tr.coverage("core.append_ordered");
    let mut warnings = Vec::new();
    for (name, c) in [("read", read_coverage), ("write", write_coverage)] {
        if !COVERAGE.contains(&c) {
            warnings.push(format!("trace.{name}_coverage {c:.3} outside [0.85, 1.15]"));
        }
    }

    // Counts from the forced-layered pass.
    let queries = probe_io.len().max(1) as f64;
    let sum = |f: &dyn Fn(&(IoCounts, usize, usize)) -> u64| -> f64 {
        probe_io.iter().map(f).sum::<u64>() as f64
    };
    let rows = sum(&|p| p.2 as u64).max(1.0);
    let candidates = sum(&|p| p.1 as u64);
    let hits = sum(&|p| p.0.index_hits);
    let misses = sum(&|p| p.0.index_misses);
    let vo_rows = vo.iter().map(|v| v.1).sum::<usize>().max(1) as f64;
    let vo_bytes = vo.iter().map(|v| v.0).sum::<usize>() as f64;

    let exec_self = {
        let children: f64 = [
            "core.window_mask",
            "index.candidates",
            "index.search",
            "storage.fetch",
        ]
        .iter()
        .map(|n| tr.total_ns(n))
        .sum();
        (tr.total_ns("core.exec_layered") - children) / queries / 1e3
    };
    let q4 = |name: &str| median(&tr.durations(name)).map(|ns| ns / 1e3);
    let best_forced = [
        q4("core.q4_scan"),
        q4("core.q4_bitmap"),
        q4("core.q4_layered"),
    ]
    .into_iter()
    .flatten()
    .fold(f64::MAX, f64::min);
    let plan_regret = q4("core.q4_auto").map(|auto| auto / best_forced);

    let mut metrics: Vec<Metric> = Vec::new();
    let mut exact: Vec<String> = Vec::new();
    let span_metric = |metrics: &mut Vec<Metric>, name, unit, span: &str| {
        let per_unit = if unit == "ms" { 1e6 } else { 1e3 };
        let (value, samples) = median_of(&tr, span, per_unit);
        metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    };
    let one = |metrics: &mut Vec<Metric>, name, unit, value: f64, samples: u64| {
        metrics.push(Metric {
            name,
            unit,
            value: Some(value),
            samples,
        });
    };
    let mut count = |metrics: &mut Vec<Metric>, name: &'static str, unit, value: f64, n: u64| {
        exact.push(name.to_string());
        one(metrics, name, unit, value, n);
    };
    let n_probe = probe_io.len() as u64;

    span_metric(&mut metrics, "sql.parse_us", "us", "sql.parse");
    span_metric(&mut metrics, "sql.plan_us", "us", "sql.plan");
    span_metric(&mut metrics, "crypto.sign_us", "us", "crypto.sign");
    span_metric(&mut metrics, "crypto.verify_us", "us", "crypto.verify");
    span_metric(
        &mut metrics,
        "crypto.merkle_root_us",
        "us",
        "crypto.merkle_root",
    );
    one(&mut metrics, "crypto.sha256_mb_s", "MB/s", sha256_mb_s, 16);
    span_metric(
        &mut metrics,
        "consensus.submit_us",
        "us",
        "consensus.submit",
    );
    span_metric(&mut metrics, "consensus.cut_us", "us", "consensus.cut");
    count(
        &mut metrics,
        "consensus.batch_txs",
        "count",
        batch_txs,
        blocks_before,
    );
    let order_wait = &paced_run.windows[0].order_wait;
    metrics.push(Metric {
        name: "consensus.order_wait_p50_ms",
        unit: "ms",
        value: order_wait.p50().map(|ns| ns as f64 / 1e6),
        samples: order_wait.count(),
    });
    metrics.push(Metric {
        name: "consensus.gen_late_p99_ms",
        unit: "ms",
        value: paced_run.gen_late.p99().map(|ns| ns as f64 / 1e6),
        samples: paced_run.gen_late.count(),
    });
    // Demoted from end to end (these two and `core.commit_p99_ms`): too
    // host-sensitive here to carry a bound.
    metrics.push(Metric {
        name: "core.ingest_tps",
        unit: "tx/s",
        value: median(&loaded.segment_tps),
        samples: loaded.segment_tps.len() as u64,
    });
    let apply_lag = &paced_run.windows[0].apply_lag;
    metrics.push(Metric {
        name: "core.apply_lag_p50_ms",
        unit: "ms",
        value: apply_lag.p50().map(|ns| ns as f64 / 1e6),
        samples: apply_lag.count(),
    });
    let commit = &paced_run.windows[0].commit;
    metrics.push(Metric {
        name: "core.commit_p99_ms",
        unit: "ms",
        value: commit.p99().map(|ns| ns as f64 / 1e6),
        samples: commit.count(),
    });
    span_metric(&mut metrics, "core.seal_us", "us", "core.seal");
    span_metric(&mut metrics, "core.persist_us", "us", "core.persist");
    span_metric(&mut metrics, "core.index_us", "us", "core.index");
    one(
        &mut metrics,
        "core.pipeline_tps",
        "tx/s",
        write.pipeline_tps,
        3 * write.blocks as u64,
    );
    span_metric(&mut metrics, "core.checkpoint_ms", "ms", "core.checkpoint");
    span_metric(&mut metrics, "core.q4_auto_us", "us", "core.q4_auto");
    span_metric(&mut metrics, "core.q4_scan_us", "us", "core.q4_scan");
    span_metric(&mut metrics, "core.q4_bitmap_us", "us", "core.q4_bitmap");
    span_metric(&mut metrics, "core.q4_layered_us", "us", "core.q4_layered");
    metrics.push(Metric {
        name: "core.plan_regret",
        unit: "ratio",
        value: plan_regret,
        samples: STRATEGY_SAMPLES as u64,
    });
    one(&mut metrics, "core.exec_self_us", "us", exec_self, n_probe);
    span_metric(&mut metrics, "core.q2_trace_us", "us", "core.q2_trace");
    span_metric(&mut metrics, "core.view_serve_us", "us", "core.view_serve");
    span_metric(&mut metrics, "core.auth_serve_us", "us", "core.auth_serve");
    span_metric(&mut metrics, "core.auth_aux_us", "us", "core.auth_aux");
    span_metric(
        &mut metrics,
        "core.auth_verify_us",
        "us",
        "core.auth_verify",
    );
    span_metric(
        &mut metrics,
        "index.candidates_us",
        "us",
        "index.candidates",
    );
    span_metric(&mut metrics, "index.search_us", "us", "index.search");
    count(
        &mut metrics,
        "index.candidate_blocks",
        "count",
        candidates / queries,
        n_probe,
    );
    count(
        &mut metrics,
        "index.blocks_probed_per_row",
        "ratio",
        candidates / rows,
        n_probe,
    );
    span_metric(
        &mut metrics,
        "index.layered_update_us",
        "us",
        "index.layered_update",
    );
    span_metric(
        &mut metrics,
        "index.ali_update_us",
        "us",
        "index.ali_update",
    );
    span_metric(&mut metrics, "index.ali_query_us", "us", "index.ali_query");
    count(
        &mut metrics,
        "index.vo_bytes_per_row",
        "B",
        vo_bytes / vo_rows,
        vo.len() as u64,
    );
    span_metric(&mut metrics, "storage.append_us", "us", "storage.append");
    count(
        &mut metrics,
        "storage.bytes_written_per_tx",
        "B",
        write.bytes_written_per_tx,
        write.blocks as u64,
    );
    span_metric(&mut metrics, "storage.fetch_us", "us", "storage.fetch");
    span_metric(
        &mut metrics,
        "storage.read_block_us",
        "us",
        "storage.read_block",
    );
    count(
        &mut metrics,
        "storage.bytes_read_per_row",
        "B",
        sum(&|p| p.0.bytes_read) / rows,
        n_probe,
    );
    count(
        &mut metrics,
        "storage.blocks_read_per_query",
        "count",
        scan_blocks.iter().sum::<u64>() as f64 / scan_blocks.len().max(1) as f64,
        scan_blocks.len() as u64,
    );
    count(
        &mut metrics,
        "storage.index_blocks_loaded_per_query",
        "count",
        misses / queries,
        n_probe,
    );
    count(
        &mut metrics,
        "storage.index_cache_hit_rate",
        "ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        n_probe,
    );
    count(
        &mut metrics,
        "storage.checkpoint_bytes",
        "B",
        write.checkpoint_bytes as f64,
        1,
    );
    one(
        &mut metrics,
        "storage.reopen_ms",
        "ms",
        write.reopen_s * 1e3,
        1,
    );
    span_metric(
        &mut metrics,
        "types.encode_block_us",
        "us",
        "types.encode_block",
    );
    span_metric(
        &mut metrics,
        "types.decode_block_us",
        "us",
        "types.decode_block",
    );
    span_metric(&mut metrics, "offchain.lookup_us", "us", "offchain.lookup");
    one(
        &mut metrics,
        "host.cpus",
        "count",
        crate::env::cpus() as f64,
        1,
    );
    one(
        &mut metrics,
        "host.threads",
        "count",
        engine::parallel_threads() as f64,
        1,
    );
    one(&mut metrics, "host.calib_ms", "ms", calib.median_ms(), 4);
    one(
        &mut metrics,
        "host.calib_spread",
        "ratio",
        calib.spread(),
        4,
    );
    one(
        &mut metrics,
        "trace.write_coverage",
        "ratio",
        write_coverage,
        write_ops,
    );
    one(
        &mut metrics,
        "trace.read_coverage",
        "ratio",
        read_coverage,
        read_ops,
    );
    one(
        &mut metrics,
        "trace.pass_s",
        "s",
        started.elapsed().as_secs_f64(),
        1,
    );

    Ok(Traced {
        violations,
        warnings,
        exact,
        attempted,
        failed,
        metrics,
        spans: obj([
            ("workload", plan.name.into()),
            ("seed", seed.into()),
            ("spans", tr.to_json()),
        ]),
    })
}
