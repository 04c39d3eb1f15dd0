//! Repo-wide concurrency/robustness lint, run by `ci.sh`.
//!
//! Zero dependencies by design: the rules are substring checks over
//! comment- and string-stripped source with `#[cfg(test)]` / `#[test]`
//! items masked out, which is exactly enough for the invariants we
//! enforce and keeps the tool buildable offline in seconds.
//!
//! Rules (non-test code only):
//!
//! 1. `spawn`  — no `thread::spawn` outside `crates/parallel` and
//!    `crates/model`. Everything else goes through
//!    `sebdb_parallel::spawn_service` or `sebdb_parallel::par_map`, so
//!    every service thread inherits naming and panic routing and every
//!    fan-out the `SEBDB_THREADS=1` sequential fallback.
//! 2. `sleep`  — no `thread::sleep` (sleep-based polling hides lost
//!    wakeups; use a Condvar). Deliberate *simulation* delays (network
//!    latency, execution cost) are allowlisted.
//! 3. `unwrap` — no `.unwrap()` / `.expect(` in `crates/core`,
//!    `crates/storage`, `crates/consensus`. Allowlisted survivors must
//!    carry an `// invariant:` comment within the six lines above.
//! 4. `clock`  — no direct `SystemTime::now` outside the node clock
//!    (`crates/consensus/src/traits.rs`), so tests can virtualize time
//!    from one place.
//! 5. `std-sync` — no `std::sync::{Mutex, RwLock, Condvar}` outside
//!    `shims/` and `crates/model`. Engine code locks through the
//!    `parking_lot` shim (and models through `sebdb_model::sync`), so
//!    the model checker's instrumented primitives — including the
//!    happens-before race detector's clock propagation — cover every
//!    lock the engine actually takes.
//!
//! 6. `par-floor` — a `par_map` call outside `crates/parallel` passes
//!    a named `sebdb_parallel::FLOOR_*` cost-class constant as its
//!    per-worker floor, never an integer literal: a floor of `1` spawns
//!    threads for microseconds of work (DESIGN §8).
//! 7. `env` — no `env::var` / `env::var_os` / `env::vars` under
//!    `crates/` outside `crates/parallel/src/lib.rs` (`SEBDB_THREADS`,
//!    the one engine setting read from the environment) and
//!    `crates/bench/` (harness switches): every other setting is a
//!    constructor argument or a setter (DESIGN "Configuration").
//! 8. `rename` — no `fs::rename` outside the store's publisher
//!    (`crates/storage/src/publish.rs`): a file replaced as a whole
//!    goes through `publish_atomically`, so the `.tmp` → fsync →
//!    rename → directory-fsync protocol and its crash step exist once.
//!
//! 9. `unsafe` — the keyword appears only in
//!    `crates/crypto/src/sha256.rs` (the SHA-extensions kernel), in test
//!    code too. There every `unsafe fn` carries a `# Safety` doc and
//!    every other `unsafe` (a block) a `// SAFETY:` comment within the
//!    six lines above, saying why the requirements hold.
//!
//! 10. `loc` — the non-test Rust lines under `crates/` and `tools/`
//!     (every line of a file outside `tests/` and `benches/` that is not
//!     in a `#[cfg(test)]` / `#[test]` item) must not exceed the number
//!     in `tools/lint/loc_budget.txt`. ROADMAP aim 2 says the line count
//!     goes down; a PR that needs more raises the number in its own diff,
//!     where a reviewer sees it.
//!
//! 11. `sans-io` — the protocol cores (`crates/consensus/src/pbft.rs`,
//!     `crates/consensus/src/tendermint.rs`) name no clock read
//!     (`Instant::now`, `now_ms(`), timed receive (`recv_timeout`),
//!     service thread (`spawn_service`) or channel type: they are state
//!     machines the event loop steps, so one seed replays a run.
//!
//! The allowlist lives in `tools/lint/allowlist.txt`; each line is
//! `<rule> <path> <count>`. The file is capped at 25 entries and every
//! entry must be used — a stale entry fails the lint, so the allowlist
//! can only shrink or be consciously extended.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

// Ratcheted down as sites were burned down (25 → 2 → 0): the last two
// simulation delays now park on condvar deadlines. Raising this
// requires burning an argument into the PR, not just a bigger number.
const MAX_ALLOWLIST_ENTRIES: usize = 0;

/// Crates whose non-test code may call `thread::spawn` directly.
const SPAWN_ALLOWED_DIRS: &[&str] = &["crates/parallel/", "crates/model/"];

/// Crates under the unwrap/expect ban.
const UNWRAP_SCOPE: &[&str] = &["crates/core/", "crates/storage/", "crates/consensus/"];

/// The single sanctioned wall-clock read (the node clock, `now_ms`).
const CLOCK_FILE: &str = "crates/consensus/src/traits.rs";

/// The single sanctioned environment read (`SEBDB_THREADS`).
const ENV_FILE: &str = "crates/parallel/src/lib.rs";

/// The single sanctioned `fs::rename` (`publish_atomically`).
const RENAME_FILE: &str = "crates/storage/src/publish.rs";

/// The rules an allowlist entry may name.
const RULES: &str = "spawn sleep unwrap clock std-sync par-floor env rename unsafe sans-io";

/// The sans-I/O protocol cores.
const SANS_IO_FILES: &[&str] = &[
    "crates/consensus/src/pbft.rs",
    "crates/consensus/src/tendermint.rs",
];

/// What a sans-I/O core may not name: clocks, timed waits, threads and
/// channels.
const SANS_IO_BANNED: &[&str] = &[
    "Instant::now",
    "now_ms(",
    "recv_timeout",
    "spawn_service",
    "Sender<",
    "Receiver<",
    "channel::",
    "mpsc",
];

/// The one file that may hold `unsafe` code.
const UNSAFE_FILE: &str = "crates/crypto/src/sha256.rs";

/// Harness code whose switches (`SEBDB_BENCH_SMOKE`) are not engine
/// settings.
const ENV_EXEMPT_DIR: &str = "crates/bench/";

/// Directories whose non-test code may use the raw `std::sync` lock
/// primitives: the shims wrap them, and the model checker builds its
/// instrumented primitives (and the race detector's internal state) on
/// them by necessity.
const STD_SYNC_ALLOWED_DIRS: &[&str] = &["shims/", "crates/model/"];

/// The fan-out primitive, up to the opening parenthesis; its second
/// argument is the per-worker floor.
const PAR_MAP: &str = "par_map(";

/// The crate that defines the primitive (and may pass floors through).
const PAR_FLOOR_EXEMPT_DIR: &str = "crates/parallel/";

/// The banned `std::sync` lock types (`Arc`, atomics, and `OnceLock`
/// remain fine everywhere — they are not lock-discipline state the
/// model checker needs to interpose on).
const STD_SYNC_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];

struct Violation {
    rule: &'static str,
    path: String,
    line: usize,
    text: String,
}

#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    count: usize,
    used: usize,
}

fn main() {
    let root = workspace_root();
    let allowlist_path = root.join("tools/lint/allowlist.txt");
    let mut allowlist = load_allowlist(&allowlist_path).unwrap_or_else(|e| die(&e));

    let mut files = Vec::new();
    for dir in ["crates", "shims", "tools"] {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut loc = 0;
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(file) else {
            continue;
        };
        let lines = check_file(&rel, &source, &mut violations);
        if rel.starts_with("crates/") || rel.starts_with("tools/") {
            loc += lines;
        }
    }
    let budget_path = root.join("tools/lint/loc_budget.txt");
    let budget = load_loc_budget(&budget_path).unwrap_or_else(|e| die(&e));
    if loc > budget {
        die(&format!(
            "[loc] {loc} non-test lines under crates/ + tools/ exceed the budget of {budget}; \
             delete what the change made unnecessary, or raise tools/lint/loc_budget.txt in \
             this diff and say why"
        ));
    }

    let mut failures = Vec::new();
    for v in violations {
        match allowlist
            .iter_mut()
            .find(|a| a.rule == v.rule && a.path == v.path && a.used < a.count)
        {
            Some(entry) => entry.used += 1,
            None => failures.push(v),
        }
    }
    for entry in &allowlist {
        if entry.used < entry.count {
            eprintln!(
                "sebdb-lint: stale allowlist entry `{} {} {}` — only {} site(s) remain; \
                 shrink the entry",
                entry.rule, entry.path, entry.count, entry.used
            );
            std::process::exit(1);
        }
    }

    if failures.is_empty() {
        println!(
            "sebdb-lint: {} files clean ({} allowlisted sites), {loc} non-test lines of {budget}",
            files.len(),
            allowlist.iter().map(|a| a.count).sum::<usize>()
        );
        return;
    }
    for v in &failures {
        eprintln!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.text.trim());
    }
    eprintln!(
        "sebdb-lint: {} violation(s). Fix them, or (for a justified invariant) add a \
         `<rule> <path> <count>` line to tools/lint/allowlist.txt with an \
         `// invariant:` comment at the site.",
        failures.len()
    );
    std::process::exit(1);
}

/// Reports a failure of the lint itself and exits.
fn die(message: &str) -> ! {
    eprintln!("sebdb-lint: {message}");
    std::process::exit(1);
}

/// Resolve the workspace root: walk up from CWD to the directory that
/// holds the `[workspace]` Cargo.toml (cargo runs bins from the member
/// dir or the root depending on invocation).
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(path), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "allowlist line {}: expected `<rule> <path> <count>`, got `{line}`",
                i + 1
            ));
        };
        if !RULES.split(' ').any(|r| r == rule) {
            return Err(format!("allowlist line {}: unknown rule `{rule}`", i + 1));
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count `{count}`", i + 1))?;
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            count,
            used: 0,
        });
    }
    if entries.len() > MAX_ALLOWLIST_ENTRIES {
        return Err(format!(
            "allowlist has {} entries; the cap is {MAX_ALLOWLIST_ENTRIES} — burn some down \
             before adding more",
            entries.len()
        ));
    }
    Ok(entries)
}

/// The line budget: the first line of `path` that is not a comment.
fn load_loc_budget(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let line = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'));
    line.and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("{}: expected one number", path.display()))
}

/// Checks one file against every rule and returns how many of its
/// lines are non-test code.
fn check_file(rel: &str, source: &str, out: &mut Vec<Violation>) -> usize {
    let stripped = strip_comments_and_strings(source);
    let original_lines: Vec<&str> = source.lines().collect();
    // Undefined behaviour in a test is still undefined: test code too.
    check_unsafe(rel, &stripped, &original_lines, out);
    // Integration tests and benches are test code wholesale.
    if rel.contains("/tests/") || rel.contains("/benches/") {
        return 0;
    }
    let test_lines = test_line_mask(&stripped);

    for (i, line) in stripped.lines().enumerate() {
        if test_lines[i] {
            continue;
        }
        let lineno = i + 1;
        let shown = original_lines.get(i).copied().unwrap_or(line);
        if line.contains("thread::spawn") && !SPAWN_ALLOWED_DIRS.iter().any(|d| rel.starts_with(d))
        {
            out.push(Violation {
                rule: "spawn",
                path: rel.to_string(),
                line: lineno,
                text: format!("direct thread::spawn (use sebdb_parallel): {shown}"),
            });
        }
        if line.contains("thread::sleep") {
            out.push(Violation {
                rule: "sleep",
                path: rel.to_string(),
                line: lineno,
                text: format!("sleep-based polling (use a Condvar): {shown}"),
            });
        }
        if UNWRAP_SCOPE.iter().any(|d| rel.starts_with(d))
            && (line.contains(".unwrap()") || line.contains(".expect("))
        {
            if has_comment_above(&original_lines, i, "invariant:") {
                // Still must be allowlisted; report so uncovered sites fail.
                out.push(Violation {
                    rule: "unwrap",
                    path: rel.to_string(),
                    line: lineno,
                    text: format!("unwrap/expect in hot crate: {shown}"),
                });
            } else {
                let mut text = String::new();
                let _ = write!(
                    text,
                    "unwrap/expect without `// invariant:` comment: {shown}"
                );
                out.push(Violation {
                    rule: "unwrap-no-invariant",
                    path: rel.to_string(),
                    line: lineno,
                    text,
                });
            }
        }
        if line.contains("SystemTime::now") && rel != CLOCK_FILE {
            out.push(Violation {
                rule: "clock",
                path: rel.to_string(),
                line: lineno,
                text: format!("direct wall-clock read (route through the node clock): {shown}"),
            });
        }
        // `env::var` is a prefix of `var_os`, `vars` and `vars_os` (and
        // of no other `std::env` item: `temp_dir`, `current_dir` pass).
        if line.contains("env::var")
            && rel.starts_with("crates/")
            && rel != ENV_FILE
            && !rel.starts_with(ENV_EXEMPT_DIR)
        {
            out.push(Violation {
                rule: "env",
                path: rel.to_string(),
                line: lineno,
                text: format!("environment read (take a constructor argument): {shown}"),
            });
        }
        if SANS_IO_FILES.contains(&rel) {
            if let Some(banned) = SANS_IO_BANNED.iter().find(|b| line.contains(*b)) {
                out.push(Violation {
                    rule: "sans-io",
                    path: rel.to_string(),
                    line: lineno,
                    text: format!("`{banned}` in a sans-I/O protocol core: {shown}"),
                });
            }
        }
        if line.contains("fs::rename") && rel != RENAME_FILE {
            out.push(Violation {
                rule: "rename",
                path: rel.to_string(),
                line: lineno,
                text: format!("direct fs::rename (use publish_atomically): {shown}"),
            });
        }
        // Catches direct paths (`std::sync::Mutex<...>`) and import
        // lines naming a banned type (`use std::sync::{Arc, Mutex};`).
        // Non-import lines only match on the full path, so legal
        // `std::sync` items (Arc, OnceLock, atomics) sharing a line
        // with a shim-provided `Mutex`/`Condvar` do not trip the rule.
        let std_sync_hit = STD_SYNC_TYPES
            .iter()
            .any(|t| line.contains(&format!("std::sync::{t}")))
            || (line.trim_start().starts_with("use std::sync::")
                && STD_SYNC_TYPES.iter().any(|t| line.contains(t)));
        if std_sync_hit && !STD_SYNC_ALLOWED_DIRS.iter().any(|d| rel.starts_with(d)) {
            out.push(Violation {
                rule: "std-sync",
                path: rel.to_string(),
                line: lineno,
                text: format!("raw std::sync lock (use the parking_lot shim): {shown}"),
            });
        }
    }
    if !rel.starts_with(PAR_FLOOR_EXEMPT_DIR) {
        for (i, floor) in unnamed_floors(&stripped) {
            if !test_lines[i] {
                out.push(Violation {
                    rule: "par-floor",
                    path: rel.to_string(),
                    line: i + 1,
                    text: format!(
                        "fan-out floor `{floor}` is not a sebdb_parallel::FLOOR_* constant: {}",
                        original_lines.get(i).copied().unwrap_or_default()
                    ),
                });
            }
        }
    }
    test_lines.iter().filter(|masked| !**masked).count()
}

/// Every `par_map` call in `stripped` whose floor argument is not a
/// `FLOOR_*` constant, as (0-based line, argument). Calls span lines,
/// so this walks the whole source, not one line.
fn unnamed_floors(stripped: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, _) in stripped.match_indices(PAR_MAP) {
        let before = stripped[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue; // e.g. `par_map(` inside `my_par_map(`
        }
        // Split the call's arguments at top-level commas.
        let mut args = vec![String::new()];
        let mut depth = 0i32;
        for ch in stripped[at + PAR_MAP.len()..].chars() {
            match ch {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' if depth == 0 => break,
                ')' | ']' | '}' => depth -= 1,
                ',' if depth == 0 => {
                    args.push(String::new());
                    continue;
                }
                _ => {}
            }
            if let Some(arg) = args.last_mut() {
                arg.push(ch);
            }
        }
        let floor = args.get(1).map_or("", |a| a.trim());
        let constant = floor.rsplit("::").next().unwrap_or(floor);
        let named = constant.starts_with("FLOOR_")
            && constant.chars().all(|c| c.is_ascii_uppercase() || c == '_');
        if !named {
            let line = stripped[..at].matches('\n').count();
            out.push((line, floor.to_string()));
        }
    }
    out
}

/// Rule `unsafe`: every `unsafe` keyword outside [`UNSAFE_FILE`], and
/// inside it every `unsafe fn` without a `# Safety` doc and every other
/// `unsafe` without a `// SAFETY:` comment.
fn check_unsafe(rel: &str, stripped: &str, original_lines: &[&str], out: &mut Vec<Violation>) {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    for (i, line) in stripped.lines().enumerate() {
        for (at, _) in line.match_indices("unsafe") {
            let rest = &line[at + "unsafe".len()..];
            if line[..at].ends_with(ident) || rest.starts_with(ident) {
                continue; // part of a longer name, e.g. `unsafe_code`
            }
            let (ok, why) = if rel != UNSAFE_FILE {
                (false, "outside the SHA-256 kernel's file")
            } else if rest.trim_start().starts_with("fn ") {
                (
                    has_safety_doc(original_lines, i),
                    "fn without a `# Safety` doc",
                )
            } else {
                let ok = has_comment_above(original_lines, i, "SAFETY:");
                (ok, "without a `// SAFETY:` comment above")
            };
            if !ok {
                let shown = original_lines.get(i).copied().unwrap_or(line);
                out.push(Violation {
                    rule: "unsafe",
                    path: rel.to_string(),
                    line: i + 1,
                    text: format!("unsafe {why}: {shown}"),
                });
            }
        }
    }
}

/// True if the doc comment and attributes right above line `idx` hold a
/// `# Safety` section.
fn has_safety_doc(original_lines: &[&str], idx: usize) -> bool {
    original_lines[..idx]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("///") || l.starts_with("#["))
        .any(|l| l.starts_with("/// # Safety"))
}

/// True if one of the six lines above `idx` (or the line itself)
/// carries `marker` — an `// invariant:` comment justifying an unwrap,
/// a `// SAFETY:` comment justifying an `unsafe` block.
fn has_comment_above(original_lines: &[&str], idx: usize, marker: &str) -> bool {
    let lo = idx.saturating_sub(6);
    original_lines[lo..=idx.min(original_lines.len() - 1)]
        .iter()
        .any(|l| l.contains(marker))
}

/// Per-line mask: true for lines inside a `#[cfg(test)]` or `#[test]`
/// item (attribute line through the item's closing brace, or its `;`
/// for brace-less items).
fn test_line_mask(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim_start();
        if !(t.starts_with("#[cfg(test)]") || t.starts_with("#[test]")) {
            i += 1;
            continue;
        }
        // Mask from the attribute to the end of the annotated item:
        // scan forward for the first `{` (entering the body) or a `;`
        // at depth 0 (brace-less item such as `#[cfg(test)] use ...;`).
        let start = i;
        let mut depth: i64 = 0;
        let mut entered = false;
        'scan: while i < lines.len() {
            for ch in lines[i].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth == 0 {
                            break 'scan;
                        }
                    }
                    ';' if !entered && depth == 0 && i > start => break 'scan,
                    _ => {}
                }
            }
            i += 1;
        }
        let end = i.min(lines.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(start) {
            *m = true;
        }
        i += 1;
    }
    mask
}

/// Replace comment and string-literal bytes with spaces, preserving the
/// line structure so line numbers survive. Handles `//`, nested
/// `/* */`, `"…"` with escapes, `r#"…"#` raw strings, char literals,
/// and leaves lifetimes (`'a`) alone.
fn strip_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')) => {
                // Possible raw string r"…" / r#"…"#.
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    // Blank the `r`, the hashes, and the opening quote.
                    out.resize(out.len() + hashes + 2, b' ');
                    i = j + 1;
                    // Scan for `"` followed by `hashes` hash marks.
                    'raw: while i < bytes.len() {
                        if bytes[i] == b'"' {
                            let close = (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#'));
                            if close {
                                out.resize(out.len() + hashes + 1, b' ');
                                i += hashes + 1;
                                break 'raw;
                            }
                        }
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            out.extend_from_slice(b"  ");
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: '\…' or 'x' is a literal;
                // anything else (e.g. 'static) is a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        out.push(b' ');
                        i += 1;
                    }
                    if i < bytes.len() {
                        out.push(b' ');
                        i += 1;
                    }
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    out.extend_from_slice(b"   ");
                    i += 3;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip_comments_and_strings("a // thread::spawn\nb /* .unwrap() */ c\n");
        assert!(!s.contains("spawn"));
        assert!(!s.contains("unwrap"));
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn strips_strings_but_not_lifetimes() {
        let s = strip_comments_and_strings(
            "let x: &'static str = \"thread::spawn\"; let c = 'q'; r#\"SystemTime::now\"#;",
        );
        assert!(!s.contains("spawn"));
        assert!(!s.contains("SystemTime"));
        assert!(s.contains("'static"));
    }

    #[test]
    fn masks_cfg_test_modules() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let mask = test_line_mask(&strip_comments_and_strings(src));
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn counts_non_test_lines_and_none_of_a_test_file() {
        let src = "//! doc\nfn real() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let mut v = Vec::new();
        assert_eq!(check_file("crates/core/src/x.rs", src, &mut v), 3);
        assert_eq!(check_file("crates/core/tests/x.rs", src, &mut v), 0);
        assert_eq!(check_file("crates/bench/benches/x.rs", src, &mut v), 0);
    }

    #[test]
    fn masks_braceless_cfg_test_items() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() {}\n";
        let mask = test_line_mask(&strip_comments_and_strings(src));
        assert_eq!(mask, vec![true, true, false]);
    }

    #[test]
    fn flags_each_rule() {
        let src = "fn f() {\n    std::thread::spawn(|| ());\n    std::thread::sleep(d);\n    \
                   x.unwrap();\n    std::time::SystemTime::now();\n    \
                   std::env::var(\"X\");\n    std::fs::rename(a, b);\n    unsafe { g() };\n}\n";
        let mut v = Vec::new();
        check_file("crates/core/src/x.rs", src, &mut v);
        let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"spawn"));
        assert!(rules.contains(&"sleep"));
        assert!(rules.contains(&"unwrap-no-invariant"));
        assert!(rules.contains(&"clock"));
        assert!(rules.contains(&"env"));
        assert!(rules.contains(&"rename"));
        assert!(rules.contains(&"unsafe"));
        let mut v = Vec::new();
        check_file(RENAME_FILE, "fn f() { std::fs::rename(a, b); }\n", &mut v);
        assert!(v.is_empty(), "the publisher is the one rename site");
    }

    #[test]
    fn sans_io_cores_name_no_clock_timer_thread_or_channel() {
        for src in [
            "fn f() { let t = Instant::now(); }\n",
            "fn f() { let t = now_ms(); }\n",
            "fn f() { rx.recv_timeout(d); }\n",
            "fn f() { sebdb_parallel::spawn_service(\"x\", g); }\n",
            "struct V { out: Sender<u32> }\n",
            "fn f(rx: Receiver<u32>) {}\n",
            "use crossbeam::channel::unbounded;\n",
            "use std::sync::mpsc;\n",
        ] {
            for core in SANS_IO_FILES {
                let mut v = Vec::new();
                check_file(core, src, &mut v);
                assert_eq!(v.len(), 1, "{core}: {src}");
                assert_eq!(v[0].rule, "sans-io");
            }
            // The engine around the cores keeps its clock and threads.
            let mut v = Vec::new();
            check_file("crates/consensus/src/engine.rs", src, &mut v);
            assert!(v.iter().all(|v| v.rule != "sans-io"), "{src}");
        }
        // A step's time argument, comments and test code pass.
        let ok = "fn step(&mut self, now_ms: u64) {} // Instant::now\n\
                  #[cfg(test)]\nmod tests {\n    fn t() { now_ms(); }\n}\n";
        let mut v = Vec::new();
        check_file(SANS_IO_FILES[0], ok, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn unsafe_only_in_the_kernel_file_and_only_with_its_reasons() {
        let reasoned = "/// Runs.\n///\n/// # Safety\n///\n/// The CPU has `sha`.\n\
                        #[target_feature(enable = \"sha\")]\nunsafe fn k() {}\nfn f() {\n    \
                        // SAFETY: the check above.\n    unsafe { k() };\n}\n";
        let bare = "unsafe fn k() {}\nfn f() {\n    unsafe { k() };\n}\n";
        let count = |path: &str, src: &str| {
            let mut v = Vec::new();
            check_file(path, src, &mut v);
            assert!(v.iter().all(|v| v.rule == "unsafe"), "{path}");
            v.len()
        };
        assert_eq!(count(UNSAFE_FILE, reasoned), 0);
        assert_eq!(
            count(UNSAFE_FILE, bare),
            2,
            "no `# Safety` doc, no `// SAFETY:`"
        );
        // Elsewhere every use is flagged, reasons or not, test code too.
        for path in [
            "crates/core/src/x.rs",
            "crates/core/tests/x.rs",
            "shims/rand/src/lib.rs",
        ] {
            assert_eq!(count(path, reasoned), 2, "{path}");
        }
        let in_test_module = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { g() } }\n}\n";
        assert_eq!(count("crates/core/src/x.rs", in_test_module), 1);
        // Longer names and comments are not the keyword.
        let names = "#![deny(unsafe_code)]\n// unsafe { }\nfn not_unsafe() {}\n";
        assert_eq!(count("crates/core/src/x.rs", names), 0);
    }

    #[test]
    fn env_reads_allowed_in_parallel_bench_tests_and_for_dirs() {
        let src = "fn f() { std::env::var(\"X\"); }\n";
        for path in [
            "crates/parallel/src/lib.rs",
            "crates/bench/src/figures.rs",
            "crates/core/tests/x.rs",
            "shims/proptest/src/test_runner.rs",
        ] {
            let mut v = Vec::new();
            check_file(path, src, &mut v);
            assert!(v.is_empty(), "{path} must be exempt");
        }
        let mut v = Vec::new();
        check_file(
            "crates/core/src/foo.rs",
            "fn real() { std::env::temp_dir(); std::env::current_dir(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { std::env::var(\"X\"); }\n}\n",
            &mut v,
        );
        assert!(v.is_empty(), "directory lookups and test-masked reads pass");
    }

    #[test]
    fn unwrap_with_invariant_comment_is_allowlistable() {
        let src = "fn f() {\n    // invariant: index built above\n    x.unwrap();\n}\n";
        let mut v = Vec::new();
        check_file("crates/storage/src/x.rs", src, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unwrap");
    }

    #[test]
    fn spawn_allowed_in_parallel_and_model() {
        let src = "fn f() { std::thread::spawn(|| ()); }\n";
        for dir in ["crates/parallel/src/lib.rs", "crates/model/src/thread.rs"] {
            let mut v = Vec::new();
            check_file(dir, src, &mut v);
            assert!(v.is_empty(), "{dir}: {:?}", v.len());
        }
    }

    #[test]
    fn flags_literal_fan_out_floors() {
        // A literal or computed floor trips the rule wherever the call
        // sits, across lines too.
        for src in [
            "fn f() { sebdb_parallel::par_map(&xs, 1, |x| x + 1); }\n",
            "fn f() {\n    par_map(\n        &xs,\n        16,\n        |x| g(x, 2),\n    );\n}\n",
            "fn f() { par_map(&xs, MIN, |x| x.then_some(())); }\n",
            "fn f() { par_map(&xs, 2 * FLOOR_BLOCK, |x| *x); }\n",
        ] {
            let mut v = Vec::new();
            check_file("crates/core/src/x.rs", src, &mut v);
            assert_eq!(v.len(), 1, "{src}");
            assert_eq!(v[0].rule, "par-floor");
        }
        let named = "fn f() {\n    sebdb_parallel::par_map(&xs, sebdb_parallel::FLOOR_BLOCK, |x| g(x, 1));\n    \
                     par_map(&jobs, FLOOR_RUN, write_job);\n    my_par_map(&xs, 1, f);\n}\n";
        let mut v = Vec::new();
        check_file("crates/core/src/x.rs", named, &mut v);
        assert!(v.is_empty(), "named floors must pass");
        // The defining crate and test code are exempt.
        let literal = "fn f() { par_map(&xs, 1, |x| x + 1); }\n";
        for path in ["crates/parallel/src/lib.rs", "crates/bench/benches/x.rs"] {
            let mut v = Vec::new();
            check_file(path, literal, &mut v);
            assert!(v.is_empty(), "{path} must be exempt");
        }
        let mut v = Vec::new();
        check_file(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { par_map(&xs, 4, |x| *x); }\n}\n",
            &mut v,
        );
        assert!(v.is_empty(), "test-masked literal floors must be exempt");
    }

    #[test]
    fn flags_std_sync_locks_in_engine_code() {
        // Direct paths and grouped imports both trip the rule; Arc,
        // atomics, and OnceLock stay legal.
        for src in [
            "struct S { m: std::sync::Mutex<u32> }\n",
            "use std::sync::{Arc, RwLock};\n",
            "use std::sync::Condvar;\n",
        ] {
            let mut v = Vec::new();
            check_file("crates/storage/src/x.rs", src, &mut v);
            assert_eq!(v.len(), 1, "{src}");
            assert_eq!(v[0].rule, "std-sync");
        }
        let mut v = Vec::new();
        check_file(
            "crates/storage/src/x.rs",
            "use std::sync::{Arc, OnceLock};\nuse std::sync::atomic::AtomicU64;\n\
             static P: std::sync::OnceLock<(Mutex<()>, parking_lot::Condvar)> = \
             std::sync::OnceLock::new();\n",
            &mut v,
        );
        assert!(
            v.is_empty(),
            "legal std::sync items (even sharing a line with shim lock types) must pass"
        );
    }

    #[test]
    fn std_sync_allowed_in_shims_model_and_tests() {
        let src = "use std::sync::Mutex;\n";
        for path in [
            "shims/parking_lot/src/lib.rs",
            "crates/model/src/race.rs",
            "crates/storage/tests/x.rs",
        ] {
            let mut v = Vec::new();
            check_file(path, src, &mut v);
            assert!(v.is_empty(), "{path} must be exempt");
        }
        // #[cfg(test)] modules inside engine crates are masked too.
        let mut v = Vec::new();
        check_file(
            "crates/parallel/src/lib.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n",
            &mut v,
        );
        assert!(v.is_empty(), "test-masked std::sync must be exempt");
    }
}
