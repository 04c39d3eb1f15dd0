//! No-global-lock proof for the disk read path.
//!
//! The old `SegmentSet` held one `Mutex` across open+seek+read, so
//! grouped reads serialized at the disk layer no matter how many
//! worker threads the executor fanned out. These tests pin the new
//! contract: reads on the same or different segments proceed truly
//! concurrently (verified with an injected in-flight probe, so the
//! proof holds even on a 1-CPU host), and each segment file is opened
//! at most once however many readers race the first touch.

use sebdb_crypto::sha256::Digest;
use sebdb_storage::{BlockStore, StoreConfig, TxPtr};
use sebdb_types::{Block, Transaction, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn block(height: u64, ntx: usize) -> Block {
    let txs = (0..ntx)
        .map(|i| {
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                sebdb_crypto::sig::KeyId([1; 8]),
                "donate",
                vec![
                    Value::Int(i as i64),
                    Value::Str(format!("row-{height}-{i}")),
                ],
            );
            t.tid = height * 100 + i as u64;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![0u8; 4])
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sebdb-concread-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Builds a disk chain whose tiny segment size forces one block per
/// segment, so `nblocks` blocks span `nblocks` segment files.
fn chain_on_disk(dir: &std::path::Path, nblocks: u64) -> BlockStore {
    let store = BlockStore::open(
        dir,
        StoreConfig {
            segment_size: 1,
            sync_writes: false,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    for h in 0..nblocks {
        store.append(&block(h, 8)).unwrap();
    }
    store
}

/// Eight threads issue grouped reads across ≥ 2 segments while an
/// injected probe *blocks each read in flight* until at least two reads
/// are in flight simultaneously. Under the old global-mutex read path
/// at most one read can ever be in flight, so the probe would spin to
/// its deadline and the peak assertion below would fail — this test is
/// deterministic proof of concurrency even on a single CPU.
#[test]
fn grouped_reads_overlap_across_eight_threads() {
    let dir = tmpdir("overlap");
    let store = Arc::new(chain_on_disk(&dir, 4));
    let seen_peak = Arc::new(AtomicU64::new(0));
    {
        let seen_peak = Arc::clone(&seen_peak);
        let gauges = store.read_gauges();
        gauges.set_read_probe(Some(Box::new(move |in_flight| {
            seen_peak.fetch_max(in_flight, Ordering::AcqRel);
            let deadline = Instant::now() + Duration::from_secs(5);
            while seen_peak.load(Ordering::Acquire) < 2 && Instant::now() < deadline {
                std::hint::spin_loop();
            }
        })));
    }

    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Each thread touches two different segments.
                let a = (t % 4) as u64;
                let b = ((t + 1) % 4) as u64;
                let ptrs: Vec<TxPtr> = [a, b]
                    .iter()
                    .flat_map(|&bid| {
                        (0..8).map(move |i| TxPtr {
                            block: bid,
                            index: i,
                        })
                    })
                    .collect();
                let txs = store.read_txs_grouped(&ptrs).unwrap();
                assert_eq!(txs.len(), ptrs.len());
                for (ptr, tx) in ptrs.iter().zip(&txs) {
                    assert_eq!(tx.tid, ptr.block * 100 + ptr.index as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let gauges = store.read_gauges();
    gauges.set_read_probe(None);
    assert!(
        gauges.peak_in_flight() >= 2,
        "reads never overlapped: peak in-flight {}",
        gauges.peak_in_flight()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// However many threads race the first read of a segment, the handle
/// cache opens each segment file exactly once.
#[test]
fn racing_first_reads_open_each_segment_once() {
    let dir = tmpdir("openonce");
    drop(chain_on_disk(&dir, 3));
    // Fresh store → cold handle cache.
    let store = Arc::new(BlockStore::open(&dir, StoreConfig::default()).unwrap());
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for bid in 0..3u64 {
                    let b = store.read((bid + t) % 3).unwrap();
                    assert_eq!(b.transactions.len(), 8);
                    let _ = b;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // 3 chain-record segments + 3 partition-extent segments (the
    // 1-byte segment size forces one record per file, and the gauges
    // are shared across the chain and every partition reader).
    let gauges = store.read_gauges();
    assert_eq!(
        gauges.opens(),
        6,
        "each of the 6 segment files must be opened exactly once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent tuple reads through the offset table return intact,
/// correctly-bounded tuples (no torn buffers from shared cursors —
/// positioned reads have no cursor to share).
#[test]
fn concurrent_tuple_reads_never_tear() {
    let dir = tmpdir("tear");
    let store = Arc::new(chain_on_disk(&dir, 2));
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..50u64 {
                    let bid = (t + round) % 2;
                    let idx = ((t + round) % 8) as u32;
                    let tx = store.read_txs_in_block(bid, &[idx]).unwrap().remove(0);
                    assert_eq!(tx.tid, bid * 100 + idx as u64);
                    assert_eq!(
                        tx.values[1],
                        Value::Str(format!("row-{bid}-{idx}")),
                        "torn or misaligned tuple read"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
