//! Property: whatever the dataset, every physical strategy returns the
//! same logical answer — scans are the oracle for the indexes. This is
//! the invariant the whole indexing layer rests on.

use proptest::prelude::*;
use sebdb::Strategy as Phys;
use sebdb_bench::datagen::TestBed;
use sebdb_bench::datagen::{
    join_bed, onoff_bed, range_bed, tracking2_bed, tracking_bed, Placement,
};
use sebdb_bench::workload::{run_q2, run_q3, run_q4, run_q5, run_q6};
use sebdb_sql::{BoundPredicate, BoundPredicateKind, LogicalPlan};
use sebdb_types::Value;

fn placements() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::Uniform),
        (1.0f64..10.0).prop_map(|std_blocks| Placement::Gaussian { std_blocks }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tracking_strategies_agree(
        blocks in 2u64..12,
        per_block in 1usize..20,
        hits in 0usize..60,
        placement in placements(),
        seed in any::<u64>(),
    ) {
        let bed = tracking_bed(blocks, per_block, hits, placement, seed);
        let scan = run_q2(&bed, Phys::Scan);
        let bitmap = run_q2(&bed, Phys::Bitmap);
        let layered = run_q2(&bed, Phys::Layered);
        prop_assert_eq!(scan.len(), hits);
        prop_assert_eq!(bitmap.len(), hits);
        prop_assert_eq!(layered.len(), hits);
        // Same tid sets, not just counts.
        let tids = |r: &sebdb::QueryResult| {
            let mut v: Vec<_> = r.rows.iter().map(|row| row[0].clone()).collect();
            v.sort();
            v
        };
        prop_assert_eq!(tids(&scan), tids(&layered));
        prop_assert_eq!(tids(&scan), tids(&bitmap));
    }

    #[test]
    fn two_dim_tracking_with_windows_agree(
        blocks in 3u64..10,
        overlap in 0usize..20,
        extra in 0usize..20,
        win_lo in 0u64..5,
        win_len in 0u64..8,
        seed in any::<u64>(),
    ) {
        let bed = tracking2_bed(
            blocks, 8, overlap + extra, overlap + extra, overlap,
            Placement::Uniform, seed,
        );
        let window = Some(TestBed::window_covering_blocks(
            win_lo.min(blocks - 1),
            (win_lo + win_len).min(blocks - 1),
        ));
        let scan = run_q3(&bed, window, true, true, Phys::Scan);
        let layered = run_q3(&bed, window, true, true, Phys::Layered);
        let bitmap = run_q3(&bed, window, true, true, Phys::Bitmap);
        prop_assert_eq!(scan.len(), layered.len());
        prop_assert_eq!(scan.len(), bitmap.len());
    }

    #[test]
    fn range_strategies_agree(
        blocks in 2u64..10,
        per_block in 1usize..16,
        hits in 0usize..50,
        placement in placements(),
        seed in any::<u64>(),
    ) {
        let bed = range_bed(blocks, per_block, hits, placement, seed);
        for strat in [Phys::Scan, Phys::Bitmap, Phys::Layered, Phys::Auto] {
            prop_assert_eq!(run_q4(&bed, strat).len(), hits, "{:?}", strat);
        }
    }

    #[test]
    fn range_paths_return_identical_ordered_rows(
        blocks in 2u64..10,
        per_block in 1usize..16,
        hits in 0usize..50,
        placement in placements(),
        seed in any::<u64>(),
        lo in 0i64..12_000,
        span in 0i64..120_000,
    ) {
        // Random ranges over the filler and hit bands: whichever path
        // the planner resolves to, and whichever is forced, the answer
        // is the scan's rows in the scan's (chain) order.
        let bed = range_bed(blocks, per_block, hits, placement, seed);
        let schema = sebdb_bench::schema::donate();
        let plan = LogicalPlan::Query {
            predicates: vec![BoundPredicate {
                column: schema.resolve("amount").unwrap(),
                kind: BoundPredicateKind::Between(Value::decimal(lo), Value::decimal(lo + span)),
            }],
            schema,
            projection: vec![],
            window: None,
        };
        let exec = bed.executor();
        let scan = exec.execute(&plan, Phys::Scan).unwrap().rows;
        for strat in [Phys::Auto, Phys::Layered, Phys::Bitmap] {
            prop_assert_eq!(&exec.execute(&plan, strat).unwrap().rows, &scan, "{:?}", strat);
        }
    }

    #[test]
    fn join_strategies_agree(
        blocks in 2u64..8,
        pairs in 0usize..30,
        placement in placements(),
        seed in any::<u64>(),
    ) {
        let bed = join_bed(blocks, 6, pairs, placement, seed);
        for strat in [Phys::Scan, Phys::Bitmap, Phys::Layered] {
            prop_assert_eq!(run_q5(&bed, strat).len(), pairs, "{:?}", strat);
        }
    }

    #[test]
    fn onoff_strategies_agree(
        blocks in 2u64..8,
        pairs in 0usize..25,
        off_extra in 0usize..30,
        placement in placements(),
        seed in any::<u64>(),
    ) {
        let bed = onoff_bed(blocks, 6, pairs, off_extra, placement, seed);
        for strat in [Phys::Scan, Phys::Bitmap, Phys::Layered] {
            prop_assert_eq!(run_q6(&bed, strat).len(), pairs, "{:?}", strat);
        }
    }
}

/// The parallel engine must be invisible in results: with the worker
/// cap at 4, every strategy returns the *identical* `QueryResult`
/// (rows AND order) it returns at cap 1. This pins the
/// order-preservation contracts of the grouped reads and parallel
/// scans, not just row counts.
#[test]
fn parallel_execution_returns_identical_results() {
    let range = range_bed(12, 24, 40, Placement::gaussian(), 1234);
    let track = tracking_bed(10, 16, 30, Placement::Uniform, 5678);
    let join = join_bed(6, 8, 20, Placement::Uniform, 91011);

    let run_all = || {
        let mut results = Vec::new();
        for strat in [Phys::Scan, Phys::Bitmap, Phys::Layered] {
            results.push(run_q4(&range, strat));
            results.push(run_q2(&track, strat));
            results.push(run_q5(&join, strat));
        }
        results
    };

    sebdb_parallel::set_max_threads(1);
    let sequential = run_all();
    sebdb_parallel::set_max_threads(4);
    let parallel = run_all();
    sebdb_parallel::set_max_threads(1);

    assert_eq!(sequential.len(), parallel.len());
    for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(seq, par, "strategy/query case {i} diverged under threads=4");
    }
    // The testbeds are sized so the suite exercises non-empty results.
    assert!(sequential.iter().any(|r| !r.is_empty()));
}
