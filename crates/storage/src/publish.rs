//! The one `.tmp` → rename publisher (DESIGN §13).
//!
//! Every file the store replaces as a whole — an index checkpoint, the
//! view-registration file — is written beside its final name and
//! published by one atomic rename, so a reader finds the previous file
//! or the new one, never a torn one. A crash before the rename leaves
//! a `.tmp` behind, which the next open sweeps.

use crate::segment::Result;
use std::fs::File;
use std::path::{Path, PathBuf};

/// Replaces `final_path` atomically with what `write_body` writes.
/// `fault` is the caller's injectable crash step, consulted between the
/// finished body and the publishing rename — the commit point. Under
/// `sync_writes` the body is fsynced before the rename and the parent
/// directory after it, so the published name survives power loss.
pub(crate) fn publish_atomically(
    final_path: &Path,
    sync_writes: bool,
    write_body: impl FnOnce(&mut File) -> Result<()>,
    fault: impl FnOnce() -> Result<()>,
) -> Result<()> {
    // `<final>.tmp`, beside the file it will replace.
    let mut tmp = final_path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    write_body(&mut file)?;
    if sync_writes {
        file.sync_all()?;
    }
    drop(file);
    fault()?;
    std::fs::rename(&tmp, final_path)?;
    if sync_writes {
        if let Some(dir) = final_path.parent() {
            sync_dir(dir)?;
        }
    }
    Ok(())
}

/// Fsyncs directory `dir`, so the entries created or renamed in it
/// survive power loss.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Removes the `.tmp` files of `dir`: bodies whose writer never reached
/// its publishing rename.
pub(crate) fn sweep_unpublished(dir: &Path) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        if p.extension().is_some_and(|e| e == "tmp") {
            let _ = std::fs::remove_file(&p);
        }
    }
}
