//! Regenerates the figures of §VII, Figs. 7–21 (Fig. 22's block and
//! transaction caches are not built: DESIGN.md §4).
//!
//! Each `figN` function builds the experiment's dataset(s), runs the
//! contenders, and returns [`Figure`]s whose series mirror the paper's
//! legends (SU/SG/BU/BG/LU/LG, SI/TI, ALI vs Basic, SEBDB vs ChainSQL).
//! Absolute numbers differ from the paper's testbed (see DESIGN.md §5 —
//! parameters are scaled ~20× down for a single core); the *shapes* are
//! the reproduction target and EXPERIMENTS.md records both.

use crate::datagen::{
    join_bed, onoff_bed, range_bed, tracking2_bed, tracking_bed, Placement, TestBed, ORG1,
};
use crate::metrics::{timed, timed_mean, Figure, Series};
use crate::workload::{
    q2_key_predicate, q4_key_predicate, run_q2, run_q3, run_q4, run_q5, run_q6, run_write_benchmark,
};
use sebdb::{serve_authenticated_query, serve_auxiliary_digest, Strategy, ThinClient};
use sebdb_baseline::ChainSqlBaseline;
use sebdb_consensus::tendermint::TendermintConfig;
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer, TendermintEngine};
use sebdb_index::KeyPredicate;
use sebdb_types::Codec;
use std::sync::Arc;
use std::time::Duration;

/// Experiment scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Chain sizes swept by the "varying blockchain size" figures.
    pub blocks: Vec<u64>,
    /// Transactions per block.
    pub txs_per_block: usize,
    /// Result size when held fixed.
    pub fixed_hits: usize,
    /// Result sizes swept by the "varying result size" figures.
    pub result_sizes: Vec<usize>,
    /// Client counts for the write benchmark.
    pub client_counts: Vec<usize>,
    /// Transactions per client in the write benchmark.
    pub txs_per_client: usize,
    /// Repetitions per timing point.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Tiny scale for smoke tests (seconds total).
    pub fn smoke() -> Scale {
        Scale {
            blocks: vec![10, 20],
            txs_per_block: 20,
            fixed_hits: 40,
            result_sizes: vec![20, 40],
            client_counts: vec![1, 2],
            txs_per_client: 10,
            iters: 1,
            seed: 42,
        }
    }

    /// Default run: the paper's sweeps scaled ~20× down (DESIGN.md §5).
    /// Minutes per figure on one core.
    pub fn default_run() -> Scale {
        Scale {
            blocks: vec![25, 50, 75, 100, 125],            // paper: 500..2500
            txs_per_block: 100,                            // paper: ~14k (4 MB / 300 B)
            fixed_hits: 500,                               // paper: 10 000
            result_sizes: vec![100, 250, 500, 1000, 2000], // paper: 1k..10k / 2k..1.25M
            client_counts: vec![1, 4, 16, 64, 128, 256],   // paper: up to 480
            txs_per_client: 50,                            // paper: 100
            iters: 3,
            seed: 42,
        }
    }

    fn gaussian(&self) -> Placement {
        // Keep the Gaussian hump inside the smallest chain swept.
        Placement::Gaussian {
            std_blocks: (self.blocks.first().copied().unwrap_or(25) as f64 / 5.0).max(2.0),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

type BedBuilder = dyn Fn(u64, usize, usize, Placement, u64) -> TestBed;

/// Sweeps chain size for one query under all six strategy×placement
/// series — the common shape of Figs. 8, 11, 13, 15.
fn sweep_blocks(
    scale: &Scale,
    title: &str,
    build: &BedBuilder,
    run: &dyn Fn(&TestBed, Strategy) -> usize,
) -> Figure {
    let mut fig = Figure::new(title, "blocks", "latency ms");
    let combos = [
        ("SU", Strategy::Scan, Placement::Uniform),
        ("SG", Strategy::Scan, scale.gaussian()),
        ("BU", Strategy::Bitmap, Placement::Uniform),
        ("BG", Strategy::Bitmap, scale.gaussian()),
        ("LU", Strategy::Layered, Placement::Uniform),
        ("LG", Strategy::Layered, scale.gaussian()),
    ];
    for (label, strategy, placement) in combos {
        let mut series = Series::new(label);
        for &blocks in &scale.blocks {
            let bed = build(
                blocks,
                scale.txs_per_block,
                scale.fixed_hits,
                placement,
                scale.seed,
            );
            let d = timed_mean(scale.iters, || run(&bed, strategy));
            series.push(blocks, ms(d));
        }
        fig.add(series);
    }
    fig
}

/// Sweeps result size at a fixed chain size — Figs. 9, 12, 14, 16.
fn sweep_results(
    scale: &Scale,
    title: &str,
    build: &BedBuilder,
    run: &dyn Fn(&TestBed, Strategy) -> usize,
) -> Figure {
    let blocks = scale.blocks[scale.blocks.len() / 2];
    let mut fig = Figure::new(title, "result size", "latency ms");
    let combos = [
        ("SU", Strategy::Scan, Placement::Uniform),
        ("SG", Strategy::Scan, scale.gaussian()),
        ("BU", Strategy::Bitmap, Placement::Uniform),
        ("BG", Strategy::Bitmap, scale.gaussian()),
        ("LU", Strategy::Layered, Placement::Uniform),
        ("LG", Strategy::Layered, scale.gaussian()),
    ];
    for (label, strategy, placement) in combos {
        let mut series = Series::new(label);
        for &hits in &scale.result_sizes {
            let bed = build(blocks, scale.txs_per_block, hits, placement, scale.seed);
            let d = timed_mean(scale.iters, || run(&bed, strategy));
            series.push(hits, ms(d));
        }
        fig.add(series);
    }
    fig
}

/// Fig. 7 — write throughput and response time vs client count, Kafka
/// vs Tendermint.
pub fn fig7(scale: &Scale) -> Vec<Figure> {
    let mut tput = Figure::new(
        "Fig. 7a — Write throughput (tx/s) vs clients",
        "clients",
        "tx/s",
    );
    let mut lat = Figure::new("Fig. 7b — Write response time vs clients", "clients", "ms");
    type EngineFactory = Box<dyn Fn() -> Arc<dyn Consensus>>;
    let engines: Vec<(&str, EngineFactory)> = vec![
        (
            "kafka",
            Box::new(|| -> Arc<dyn Consensus> {
                KafkaOrderer::start(BatchConfig {
                    max_txs: 200,
                    timeout_ms: 200,
                })
            }),
        ),
        (
            "tendermint",
            Box::new(|| -> Arc<dyn Consensus> {
                TendermintEngine::start(TendermintConfig {
                    batch: BatchConfig {
                        max_txs: 10_000,
                        timeout_ms: 200,
                    },
                    step_timeout: Duration::from_millis(100),
                    // The serial CheckTx cost that bounds Tendermint's
                    // throughput (§VII-B).
                    checktx_cost_us: 1000,
                    ..TendermintConfig::default()
                })
            }),
        ),
    ];
    for (label, make) in engines {
        let mut ts = Series::new(label);
        let mut ls = Series::new(label);
        for &clients in &scale.client_counts {
            let engine = make();
            // A sink so ordered blocks don't pile up.
            let _sink = engine.subscribe();
            let stats = run_write_benchmark(Arc::clone(&engine), clients, scale.txs_per_client);
            engine.shutdown();
            ts.push(clients, stats.throughput_tps);
            ls.push(clients, stats.mean_latency_ms);
        }
        tput.add(ts);
        lat.add(ls);
    }
    vec![tput, lat]
}

/// Fig. 8 — Q2 tracking, varying blockchain size.
pub fn fig8(scale: &Scale) -> Vec<Figure> {
    vec![sweep_blocks(
        scale,
        "Fig. 8 — Tracking (Q2), varying blockchain size",
        &|b, t, h, p, s| tracking_bed(b, t, h, p, s),
        &|bed, strat| run_q2(bed, strat).len(),
    )]
}

/// Fig. 9 — Q2 tracking, varying result size.
pub fn fig9(scale: &Scale) -> Vec<Figure> {
    vec![sweep_results(
        scale,
        "Fig. 9 — Tracking (Q2), varying result size",
        &|b, t, h, p, s| tracking_bed(b, t, h, p, s),
        &|bed, strat| run_q2(bed, strat).len(),
    )]
}

/// Fig. 10 — Q3 two-dimension tracking across shrinking time windows
/// TW₁..TW₅, single index (SI) vs two indexes (TI).
pub fn fig10(scale: &Scale) -> Vec<Figure> {
    let blocks = *scale.blocks.last().unwrap();
    let org1_total = scale.fixed_hits * 2;
    let transfer_total = scale.fixed_hits * 2;
    let overlap = scale.fixed_hits / 2;
    let mut fig = Figure::new(
        "Fig. 10 — Two-dimension tracking (Q3) across time windows",
        "window",
        "latency ms",
    );
    for (label, placement, two_idx) in [
        ("SIU", Placement::Uniform, false),
        ("SIG", scale.gaussian(), false),
        ("TIU", Placement::Uniform, true),
        ("TIG", scale.gaussian(), true),
    ] {
        let bed = tracking2_bed(
            blocks,
            scale.txs_per_block,
            org1_total,
            transfer_total,
            overlap,
            placement,
            scale.seed,
        );
        let mut series = Series::new(label);
        for i in 1..=5u32 {
            // TW_i covers the last blocks/2^{i-1} blocks (paper: start
            // at block 1000 − 1000/2^{i-1}).
            let span = (blocks / 2u64.pow(i - 1)).max(1);
            let (s, e) = TestBed::window_covering_blocks(blocks - span, blocks - 1);
            let d = timed_mean(scale.iters, || {
                if two_idx {
                    run_q3(&bed, Some((s, e)), true, true, Strategy::Layered).len()
                } else {
                    // Single index: track by operator via the index,
                    // filter the operation dimension afterwards.
                    let rows = run_q3(&bed, Some((s, e)), true, false, Strategy::Layered);
                    rows.rows
                        .iter()
                        .filter(|r| r[4] == sebdb_types::Value::str("transfer"))
                        .count()
                }
            });
            series.push(format!("TW{i}"), ms(d));
        }
        fig.add(series);
    }
    vec![fig]
}

/// Fig. 11 — Q4 range query, varying blockchain size.
pub fn fig11(scale: &Scale) -> Vec<Figure> {
    vec![sweep_blocks(
        scale,
        "Fig. 11 — Range query (Q4), varying blockchain size",
        &|b, t, h, p, s| range_bed(b, t, h, p, s),
        &|bed, strat| run_q4(bed, strat).len(),
    )]
}

/// Fig. 12 — Q4 range query, varying result size.
pub fn fig12(scale: &Scale) -> Vec<Figure> {
    vec![sweep_results(
        scale,
        "Fig. 12 — Range query (Q4), varying result size",
        &|b, t, h, p, s| range_bed(b, t, h, p, s),
        &|bed, strat| run_q4(bed, strat).len(),
    )]
}

/// Fig. 13 — Q5 on-chain join, varying blockchain size.
pub fn fig13(scale: &Scale) -> Vec<Figure> {
    vec![sweep_blocks(
        scale,
        "Fig. 13 — On-chain join (Q5), varying blockchain size",
        &|b, t, h, p, s| join_bed(b, t, h, p, s),
        &|bed, strat| run_q5(bed, strat).len(),
    )]
}

/// Fig. 14 — Q5 on-chain join, varying result size.
pub fn fig14(scale: &Scale) -> Vec<Figure> {
    vec![sweep_results(
        scale,
        "Fig. 14 — On-chain join (Q5), varying result size",
        &|b, t, h, p, s| join_bed(b, t, h, p, s),
        &|bed, strat| run_q5(bed, strat).len(),
    )]
}

/// Fig. 15 — Q6 on-off-chain join, varying blockchain size.
pub fn fig15(scale: &Scale) -> Vec<Figure> {
    vec![sweep_blocks(
        scale,
        "Fig. 15 — On-off-chain join (Q6), varying blockchain size",
        &|b, t, h, p, s| onoff_bed(b, t, h, h, p, s),
        &|bed, strat| run_q6(bed, strat).len(),
    )]
}

/// Fig. 16 — Q6 on-off-chain join, varying result size.
pub fn fig16(scale: &Scale) -> Vec<Figure> {
    vec![sweep_results(
        scale,
        "Fig. 16 — On-off-chain join (Q6), varying result size",
        &|b, t, h, p, s| onoff_bed(b, t, h, h, p, s),
        &|bed, strat| run_q6(bed, strat).len(),
    )]
}

fn auth_beds(scale: &Scale, blocks: u64) -> (TestBed, TestBed) {
    let q2_bed = tracking_bed(
        blocks,
        scale.txs_per_block,
        scale.fixed_hits,
        Placement::Uniform,
        scale.seed,
    );
    let q4_bed = range_bed(
        blocks,
        scale.txs_per_block,
        scale.fixed_hits,
        Placement::Uniform,
        scale.seed,
    );
    (q2_bed, q4_bed)
}

struct AuthPoint {
    vo_bytes: f64,
    server_ms: f64,
    client_ms: f64,
}

fn run_ali_point(
    bed: &TestBed,
    table: Option<&str>,
    column: &str,
    pred: &KeyPredicate,
    iters: usize,
) -> AuthPoint {
    let (response, server) = timed(|| {
        serve_authenticated_query(&bed.ledger, table, column, pred, None).expect("ALI exists")
    });
    let digest = serve_auxiliary_digest(&bed.ledger, table, column, pred, None, response.vo.height)
        .expect("ALI exists");
    let client = ThinClient::new();
    let verify = timed_mean(iters, || {
        client
            .verify(pred, &response, &[digest, digest], 2)
            .expect("verification")
    });
    AuthPoint {
        vo_bytes: response.vo_bytes() as f64,
        server_ms: ms(server),
        client_ms: ms(verify),
    }
}

fn run_basic_point(
    bed: &TestBed,
    keep: &dyn Fn(&sebdb_types::Transaction) -> bool,
    iters: usize,
) -> AuthPoint {
    let mut client = ThinClient::new();
    client.sync_headers(&bed.ledger);
    // Server ships every block whole.
    let (blocks, server) = timed(|| {
        (0..bed.ledger.height())
            .map(|b| (*bed.ledger.read_block(b).unwrap()).clone())
            .collect::<Vec<_>>()
    });
    let vo_bytes: usize = blocks.iter().map(|b| b.to_bytes().len()).sum();
    let verify = timed_mean(iters, || {
        client
            .verify_blocks_basic(&blocks, keep)
            .expect("roots match")
    });
    AuthPoint {
        vo_bytes: vo_bytes as f64,
        server_ms: ms(server),
        client_ms: ms(verify),
    }
}

/// Figs. 17/18/19 — authenticated queries: VO size, server time,
/// client time; ALI vs the ship-all-blocks basic approach, for Q2 and
/// Q4.
pub fn fig17_18_19(scale: &Scale) -> Vec<Figure> {
    let mut vo = Figure::new("Fig. 17 — VO size (bytes)", "blocks", "bytes");
    let mut server = Figure::new("Fig. 18 — Server-side time", "blocks", "ms");
    let mut client = Figure::new("Fig. 19 — Client-side time", "blocks", "ms");
    let mut data: Vec<(String, Vec<AuthPoint>)> = vec![
        ("ALI-Q2".into(), vec![]),
        ("ALI-Q4".into(), vec![]),
        ("Basic-Q2".into(), vec![]),
        ("Basic-Q4".into(), vec![]),
    ];
    for &blocks in &scale.blocks {
        let (q2_bed, q4_bed) = auth_beds(scale, blocks);
        data[0].1.push(run_ali_point(
            &q2_bed,
            None,
            "sen_id",
            &q2_key_predicate(),
            scale.iters,
        ));
        data[1].1.push(run_ali_point(
            &q4_bed,
            Some("donate"),
            "amount",
            &q4_key_predicate(),
            scale.iters,
        ));
        data[2]
            .1
            .push(run_basic_point(&q2_bed, &|t| t.sender == ORG1, scale.iters));
        let band = q4_key_predicate();
        data[3].1.push(run_basic_point(
            &q4_bed,
            &move |t| {
                t.tname == "donate"
                    && t.get(sebdb_types::ColumnRef::App(2))
                        .map(|v| band.matches(&v))
                        .unwrap_or(false)
            },
            scale.iters,
        ));
    }
    for (label, points) in data {
        let mut vs = Series::new(label.clone());
        let mut ss = Series::new(label.clone());
        let mut cs = Series::new(label);
        for (i, p) in points.iter().enumerate() {
            let x = scale.blocks[i];
            vs.push(x, p.vo_bytes);
            ss.push(x, p.server_ms);
            cs.push(x, p.client_ms);
        }
        vo.add(vs);
        server.add(ss);
        client.add(cs);
    }
    vec![vo, server, client]
}

/// Fig. 20 — one-dimension tracking, SEBDB vs the ChainSQL-style
/// baseline, varying blockchain size (both indexed ⇒ both flat).
pub fn fig20(scale: &Scale) -> Vec<Figure> {
    let mut fig = Figure::new(
        "Fig. 20 — One-dimension tracking: SEBDB vs ChainSQL",
        "blocks",
        "latency ms",
    );
    let mut sebdb = Series::new("SEBDB");
    let mut chainsql = Series::new("ChainSQL");
    for &blocks in &scale.blocks {
        let bed = tracking_bed(
            blocks,
            scale.txs_per_block,
            scale.fixed_hits,
            Placement::Uniform,
            scale.seed,
        );
        let d = timed_mean(scale.iters, || run_q2(&bed, Strategy::Layered).len());
        sebdb.push(blocks, ms(d));

        let baseline = ChainSqlBaseline::new();
        for b in 0..blocks {
            baseline.ingest_block(&bed.ledger.read_block(b).unwrap());
        }
        let d = timed_mean(scale.iters, || baseline.track_operator(&ORG1).len());
        chainsql.push(blocks, ms(d));
    }
    fig.add(sebdb);
    fig.add(chainsql);
    vec![fig]
}

/// Fig. 21 — two-dimension tracking, SEBDB vs ChainSQL, varying the
/// operator's transaction volume at fixed result size (SEBDB flat,
/// ChainSQL linear).
pub fn fig21(scale: &Scale) -> Vec<Figure> {
    let mut fig = Figure::new(
        "Fig. 21 — Two-dimension tracking: SEBDB vs ChainSQL",
        "org1 txs",
        "latency ms",
    );
    let blocks = *scale.blocks.last().unwrap();
    let result = scale.fixed_hits / 2;
    let volumes: Vec<usize> = (0..5).map(|i| scale.fixed_hits * (1 << i)).collect();
    let mut sebdb = Series::new("SEBDB");
    let mut chainsql = Series::new("ChainSQL");
    for &org1_total in &volumes {
        let bed = tracking2_bed(
            blocks,
            scale.txs_per_block,
            org1_total,
            result * 2,
            result,
            Placement::Uniform,
            scale.seed,
        );
        let d = timed_mean(scale.iters, || {
            run_q3(&bed, None, true, true, Strategy::Layered).len()
        });
        sebdb.push(org1_total, ms(d));

        let baseline = ChainSqlBaseline::new();
        for b in 0..blocks {
            baseline.ingest_block(&bed.ledger.read_block(b).unwrap());
        }
        let d = timed_mean(scale.iters, || {
            baseline.track_operator_operation(&ORG1, "transfer").len()
        });
        chainsql.push(org1_total, ms(d));
    }
    fig.add(sebdb);
    fig.add(chainsql);
    vec![fig]
}

/// Runs one figure by key ("fig7".."fig21"; "fig17"/"fig18"/"fig19"
/// share one runner), or `"all"`. Returns the rendered output.
pub fn run_figures(which: &str, scale: &Scale) -> String {
    type FigRunner = fn(&Scale) -> Vec<Figure>;
    let all: Vec<(&str, FigRunner)> = vec![
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig17", fig17_18_19),
        ("fig18", fig17_18_19),
        ("fig19", fig17_18_19),
        ("fig20", fig20),
        ("fig21", fig21),
    ];
    let mut out = String::new();
    let mut ran = std::collections::HashSet::new();
    for (key, f) in all {
        if which != "all" && which != key {
            continue;
        }
        // fig17/18/19 share one runner; don't run it three times.
        if !ran.insert(f as usize) {
            continue;
        }
        for fig in f(scale) {
            out.push_str(&fig.render());
            out.push('\n');
        }
    }
    if out.is_empty() {
        out = format!("unknown figure '{which}' (use fig7..fig21 or all)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig8_shape() {
        let figs = fig8(&Scale::smoke());
        let fig = &figs[0];
        assert_eq!(fig.series.len(), 6);
        assert_eq!(fig.series[0].points.len(), 2);
    }

    #[test]
    fn smoke_fig17_vo_smaller_for_ali() {
        let figs = fig17_18_19(&Scale::smoke());
        let vo = &figs[0];
        let ali = vo.series.iter().find(|s| s.label == "ALI-Q4").unwrap();
        let basic = vo.series.iter().find(|s| s.label == "Basic-Q4").unwrap();
        for (a, b) in ali.points.iter().zip(&basic.points) {
            assert!(a.1 < b.1, "ALI VO {} !< basic {}", a.1, b.1);
        }
    }

    #[test]
    fn smoke_fig10_runs() {
        let out = run_figures("fig10", &Scale::smoke());
        assert!(out.contains("TW1") && out.contains("TIG"));
    }

    /// Fig. 10's claim as counts: two indexes (TI) fetch only the
    /// overlap rows, a single index (SI) fetches every `org1` row and
    /// drops the other operations after the read.
    #[test]
    fn fig10_two_indexes_read_only_the_overlap_one_index_every_org1_row() {
        let (org1_total, overlap) = (60, 12);
        let bed = tracking2_bed(20, 10, org1_total, 30, overlap, Placement::Uniform, 7);
        let txs_read = |operation: bool| {
            let stats = &bed.ledger.store().stats;
            let before = stats.snapshot().2;
            let rows = run_q3(&bed, None, true, operation, Strategy::Layered);
            let transfers = rows
                .rows
                .iter()
                .filter(|r| r[4] == sebdb_types::Value::str("transfer"))
                .count();
            assert_eq!(transfers, overlap);
            stats.snapshot().2 - before
        };
        assert_eq!(txs_read(true), overlap as u64, "TI");
        assert_eq!(txs_read(false), org1_total as u64, "SI");
    }

    #[test]
    fn smoke_fig20_21_run() {
        let out20 = run_figures("fig20", &Scale::smoke());
        assert!(out20.contains("ChainSQL"));
        let out21 = run_figures("fig21", &Scale::smoke());
        assert!(out21.contains("SEBDB"));
    }

    #[test]
    fn unknown_figure_reports() {
        assert!(run_figures("fig99", &Scale::smoke()).contains("unknown"));
    }
}
