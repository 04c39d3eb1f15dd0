//! Environment record and noise guard: what host and settings a result
//! was taken on, and whether the host held still while it was taken.

use crate::json::{obj, Json};
use std::time::Instant;

/// Calibration spread above which a run is marked noisy.
pub const NOISY_SPREAD: f64 = 0.15;

/// Names of `SEBDB_*` variables set in the environment. The engine
/// reads nine such knobs; a run with any of them set would not measure
/// the fixed configuration, so the runner refuses to start.
pub fn sebdb_env_set() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SEBDB_"))
        .collect();
    names.sort();
    names
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's commit, read from `.git` without running git (the
/// driver's checkout is not a repository; then this is `None`).
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

/// Times a fixed single-thread SHA-256 loop at points of a run; a wide
/// spread between the points means the host's speed moved underneath
/// the measurement.
#[derive(Default)]
pub struct Calibration {
    millis: Vec<f64>,
}

impl Calibration {
    /// Takes one calibration point (~15 ms).
    pub fn point(&mut self) {
        let start = Instant::now();
        crate::engine::calibration_loop();
        self.millis.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Median loop time in ms.
    pub fn median_ms(&self) -> f64 {
        crate::hist::median(&self.millis).unwrap_or(f64::NAN)
    }

    /// (max − min) ÷ median over the points taken.
    pub fn spread(&self) -> f64 {
        let max = self.millis.iter().copied().fold(f64::MIN, f64::max);
        let min = self.millis.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / self.median_ms()
    }

    /// Whether the spread exceeds [`NOISY_SPREAD`].
    pub fn noisy(&self) -> bool {
        self.spread() > NOISY_SPREAD
    }

    /// JSON record.
    pub fn record(&self) -> Json {
        obj([
            (
                "calib_ms",
                Json::Arr(self.millis.iter().map(|&m| m.into()).collect()),
            ),
            ("calib_spread", self.spread().into()),
            ("noisy", self.noisy().into()),
        ])
    }
}
