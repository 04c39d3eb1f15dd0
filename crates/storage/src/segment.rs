//! Append-only segment files.
//!
//! §IV-A: blocks are "appended to files, and once a block is appended,
//! it is immutable. The default size of a file is set 256MB … users can
//! configure the size of a file." A [`SegmentWriter`] rolls to a new
//! file when the configured size is exceeded; [`SegmentSet`] serves
//! random reads by `(segment, offset, len)` with positioned I/O over a
//! sharded handle cache, so concurrent readers never contend and never
//! seek.

use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage-layer errors.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record failed to decode.
    Corrupt(String),
    /// Asked for a block that is not stored.
    NotFound(u64),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
            StorageError::NotFound(b) => write!(f, "block {b} not found"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Where a record lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Segment file number.
    pub segment: u32,
    /// Byte offset within the segment.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u32,
}

pub(crate) fn segment_path(dir: &Path, n: u32) -> PathBuf {
    dir.join(format!("seg-{n:05}.dat"))
}

/// Appends records, rolling segments at the configured size.
pub struct SegmentWriter {
    dir: PathBuf,
    segment_size: u64,
    /// Fsync `dir` after creating a segment in it, so the new entry
    /// survives a crash (the store's `sync_writes`).
    sync_writes: bool,
    current: BufWriter<File>,
    current_n: u32,
    current_len: u64,
}

impl SegmentWriter {
    /// Opens (or resumes) a writer in `dir`. `resume_at` is the
    /// `(segment, length)` to continue from, typically derived from the
    /// manifest on restart. Under `sync_writes`, `dir` is fsynced after
    /// every segment file the writer creates.
    pub fn open(
        dir: &Path,
        segment_size: u64,
        resume_at: Option<(u32, u64)>,
        sync_writes: bool,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let (n, len) = resume_at.unwrap_or((0, 0));
        Ok(SegmentWriter {
            dir: dir.to_owned(),
            segment_size,
            sync_writes,
            current: open_segment(dir, n, len, sync_writes)?,
            current_n: n,
            current_len: len,
        })
    }

    /// Appends one record, returning where it landed. Rolls to a fresh
    /// segment first if this record would overflow the current one
    /// (a segment always holds at least one record, however large).
    pub fn append(&mut self, record: &[u8]) -> Result<Location> {
        if self.current_len > 0 && self.current_len + record.len() as u64 > self.segment_size {
            self.roll()?;
        }
        let loc = Location {
            segment: self.current_n,
            offset: self.current_len,
            len: record.len() as u32,
        };
        self.current.write_all(record)?;
        self.current_len += record.len() as u64;
        Ok(loc)
    }

    /// Flushes buffered writes to the OS.
    pub fn flush(&mut self) -> Result<()> {
        self.current.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs the current segment.
    pub fn sync(&mut self) -> Result<()> {
        self.current.flush()?;
        self.current.get_ref().sync_data()?;
        Ok(())
    }

    fn roll(&mut self) -> Result<()> {
        self.current.flush()?;
        self.current = open_segment(&self.dir, self.current_n + 1, 0, self.sync_writes)?;
        self.current_n += 1;
        self.current_len = 0;
        Ok(())
    }

    /// Current (segment, length) — persisted in the manifest so restarts
    /// can resume.
    pub fn position(&self) -> (u32, u64) {
        (self.current_n, self.current_len)
    }
}

/// Opens segment `n` of `dir` for appending, cut to `len` bytes (any
/// bytes past the manifest's view are a torn final write). Under
/// `sync_writes`, `dir` is fsynced if this created the file.
fn open_segment(dir: &Path, n: u32, len: u64, sync_writes: bool) -> Result<BufWriter<File>> {
    let path = segment_path(dir, n);
    let fresh = !path.exists();
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    file.set_len(len)?;
    if fresh && sync_writes {
        crate::publish::sync_dir(dir)?;
    }
    Ok(BufWriter::new(file))
}

/// Handle-cache shards. Segment `n` lives in shard `n % HANDLE_SHARDS`
/// at slot `n / HANDLE_SHARDS`, so readers of different segments (and
/// readers of the same already-open segment) take disjoint or shared
/// read locks and never serialize on one global mutex.
const HANDLE_SHARDS: usize = 8;

/// Hook run inside every [`SegmentSet`] read while it is in flight
/// (after the in-flight gauge is bumped, before the positioned read).
/// Concurrency tests install one to prove reads overlap; production
/// paths never set it.
pub type ReadProbe = dyn Fn(u64) + Send + Sync;

/// Read instrumentation shared by one or more [`SegmentSet`]s: the
/// open/in-flight counters and the optional read probe. A partitioned
/// store hands the *same* gauges to the segment set of every partition,
/// so open-once and read-overlap assertions hold across the whole
/// store, not per partition.
#[derive(Default)]
pub struct ReadGauges {
    /// `File::open` calls performed (tests pin open-once semantics).
    opens: AtomicU64,
    /// Reads currently between entry and completion.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight` (proves reads overlapped).
    peak_in_flight: AtomicU64,
    read_probe: RwLock<Option<Box<ReadProbe>>>,
}

impl ReadGauges {
    /// Fresh gauges (all counters zero, no probe).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of `File::open` calls so far (open-once instrumentation).
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously in-flight reads.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight.load(Ordering::Acquire)
    }

    /// Installs (or clears) a probe run inside every read while it is
    /// in flight — test instrumentation for read concurrency.
    pub fn set_read_probe(&self, probe: Option<Box<ReadProbe>>) {
        *self.read_probe.write() = probe;
    }
}

/// Serves random reads from the segment files.
///
/// Handles are cached in [`HANDLE_SHARDS`] independent `RwLock`ed
/// vectors of `Arc<File>`; the double-checked open under the shard
/// write lock guarantees each segment is opened at most once. Reads
/// use positioned I/O (`read_at`/`seek_read`), which neither moves a
/// cursor nor needs any lock, so any number of readers proceed truly
/// concurrently on the same or different segments.
pub struct SegmentSet {
    dir: PathBuf,
    shards: [RwLock<Vec<Option<Arc<File>>>>; HANDLE_SHARDS],
    gauges: Arc<ReadGauges>,
}

impl SegmentSet {
    /// Creates a reader over `dir` with its own private gauges.
    pub fn new(dir: &Path) -> Self {
        Self::with_gauges(dir, ReadGauges::new())
    }

    /// Creates a reader over `dir` reporting into `gauges` (shared
    /// across the segment sets of a partitioned store).
    pub fn with_gauges(dir: &Path, gauges: Arc<ReadGauges>) -> Self {
        SegmentSet {
            dir: dir.to_owned(),
            shards: std::array::from_fn(|_| RwLock::new(Vec::new())),
            gauges,
        }
    }

    /// Reads the record at `loc`.
    pub fn read(&self, loc: Location) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; loc.len as usize];
        self.read_into(loc, &mut buf)?;
        Ok(buf)
    }

    /// Reads exactly `buf.len()` bytes starting at `loc` into `buf`
    /// with one positioned read (no seek, no lock held across I/O).
    pub fn read_into(&self, loc: Location, buf: &mut [u8]) -> Result<()> {
        let file = self.handle(loc.segment)?;
        let now = self.gauges.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.gauges.peak_in_flight.fetch_max(now, Ordering::AcqRel);
        if let Some(probe) = self.gauges.read_probe.read().as_ref() {
            probe(now);
        }
        let res = read_exact_at(&file, buf, loc.offset);
        self.gauges.in_flight.fetch_sub(1, Ordering::AcqRel);
        res?;
        Ok(())
    }

    /// Returns the cached handle for `segment`, opening it at most once
    /// (double-checked under the shard write lock).
    fn handle(&self, segment: u32) -> Result<Arc<File>> {
        let shard = &self.shards[segment as usize % HANDLE_SHARDS];
        let slot = segment as usize / HANDLE_SHARDS;
        if let Some(Some(file)) = shard.read().get(slot) {
            return Ok(Arc::clone(file));
        }
        let mut cache = shard.write();
        if cache.len() <= slot {
            cache.resize_with(slot + 1, || None);
        }
        if let Some(file) = &cache[slot] {
            // Another reader won the open race; reuse its handle.
            return Ok(Arc::clone(file));
        }
        let file = Arc::new(File::open(segment_path(&self.dir, segment))?);
        self.gauges.opens.fetch_add(1, Ordering::Relaxed);
        cache[slot] = Some(Arc::clone(&file));
        Ok(file)
    }

    /// The gauges this set reports into.
    pub fn gauges(&self) -> &Arc<ReadGauges> {
        &self.gauges
    }

    /// Number of `File::open` calls so far (open-once instrumentation).
    pub fn opens(&self) -> u64 {
        self.gauges.opens()
    }

    /// High-water mark of simultaneously in-flight reads.
    pub fn peak_in_flight(&self) -> u64 {
        self.gauges.peak_in_flight()
    }

    /// Installs (or clears) a probe run inside every read while it is
    /// in flight — test instrumentation for read concurrency.
    pub fn set_read_probe(&self, probe: Option<Box<ReadProbe>>) {
        self.gauges.set_read_probe(probe)
    }
}

/// Positioned read: fills `buf` from `offset` without touching any
/// shared cursor.
#[cfg(unix)]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Positioned read via `seek_read` (per-call offset; the handle's
/// cursor is moved but never relied upon between calls on Windows —
/// each call passes its own absolute offset).
#[cfg(windows)]
pub(crate) fn read_exact_at(
    file: &File,
    mut buf: &mut [u8],
    mut offset: u64,
) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "segment read past end of file",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Fallback for platforms without positioned-read syscalls: a private
/// duplicate of the descriptor is seeked, so the cached handle's state
/// is never mutated.
#[cfg(not(any(unix, windows)))]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek};
    let mut dup = file.try_clone()?;
    dup.seek(std::io::SeekFrom::Start(offset))?;
    dup.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockstore::{TempDir, TEMP_DIRS};

    /// A fresh directory, removed when the test ends, pass or fail.
    fn tmpdir() -> TempDir {
        TempDir::claim(&TEMP_DIRS).unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let tmp = tmpdir();
        let dir = tmp.path();
        let mut w = SegmentWriter::open(dir, 1024, None, false).unwrap();
        let a = w.append(b"hello").unwrap();
        let b = w.append(b"world!").unwrap();
        w.flush().unwrap();
        let r = SegmentSet::new(dir);
        assert_eq!(r.read(a).unwrap(), b"hello");
        assert_eq!(r.read(b).unwrap(), b"world!");
        assert_eq!(b.offset, 5);
    }

    #[test]
    fn rolls_segments_at_size() {
        let tmp = tmpdir();
        let dir = tmp.path();
        let mut w = SegmentWriter::open(dir, 10, None, false).unwrap();
        let a = w.append(&[1u8; 8]).unwrap();
        let b = w.append(&[2u8; 8]).unwrap(); // 8+8 > 10 → new segment
        let c = w.append(&[3u8; 20]).unwrap(); // oversized record gets its own segment
        w.flush().unwrap();
        assert_eq!(a.segment, 0);
        assert_eq!(b.segment, 1);
        assert_eq!(c.segment, 2);
        let r = SegmentSet::new(dir);
        assert_eq!(r.read(c).unwrap(), vec![3u8; 20]);
        assert_eq!(r.read(a).unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn resume_truncates_torn_tail() {
        let tmp = tmpdir();
        let dir = tmp.path();
        let mut w = SegmentWriter::open(dir, 1024, None, false).unwrap();
        let a = w.append(b"durable").unwrap();
        w.flush().unwrap();
        w.append(b"torn").unwrap();
        w.flush().unwrap();
        drop(w);
        // Resume believing only the first record was committed.
        let mut w2 =
            SegmentWriter::open(dir, 1024, Some((0, a.offset + a.len as u64)), false).unwrap();
        let b = w2.append(b"new").unwrap();
        w2.flush().unwrap();
        assert_eq!(b.offset, 7);
        let r = SegmentSet::new(dir);
        assert_eq!(r.read(a).unwrap(), b"durable");
        assert_eq!(r.read(b).unwrap(), b"new");
    }

    #[test]
    fn read_missing_segment_errors() {
        let tmp = tmpdir();
        let dir = tmp.path();
        let r = SegmentSet::new(dir);
        assert!(r
            .read(Location {
                segment: 9,
                offset: 0,
                len: 4
            })
            .is_err());
    }
}
