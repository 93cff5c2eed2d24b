//! Process-global registry of finished campaign aggregates.
//!
//! Campaign runners ([`Recorder::finish`]) push here; the experiments CLI
//! drains at exit to print the [`Summary`](crate::Summary) table and to
//! write `BENCH_campaign.json`.
//!
//! [`Recorder::finish`]: crate::Recorder::finish

use std::sync::Mutex;

use crate::json::{array, JsonObject};
use crate::record::CampaignAggregate;

static AGGREGATES: Mutex<Vec<CampaignAggregate>> = Mutex::new(Vec::new());

/// Registers a finished campaign. Called by [`Recorder::finish`]; public
/// so external runners can feed the same sinks.
///
/// [`Recorder::finish`]: crate::Recorder::finish
pub fn push_aggregate(agg: CampaignAggregate) {
    AGGREGATES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(agg);
}

/// Clones the registered aggregates without clearing them.
pub fn peek_aggregates() -> Vec<CampaignAggregate> {
    AGGREGATES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Takes all registered aggregates, leaving the registry empty.
pub fn drain_aggregates() -> Vec<CampaignAggregate> {
    std::mem::take(
        &mut *AGGREGATES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// Writes `contents` to `path` atomically: the bytes land in a
/// temporary file in the same directory (same filesystem, so the rename
/// cannot cross devices) which is then renamed over `path`. A reader —
/// or a run killed mid-write — therefore sees either the complete old
/// file or the complete new one, never a truncated hybrid.
///
/// # Errors
///
/// Propagates I/O errors; the temporary file is cleaned up on failure.
pub fn atomic_write(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("atomic-write");
    // The temp file must live in the destination's own directory — not
    // the cwd — so the rename stays within one filesystem. A bare
    // file name has an empty parent, which means "here".
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    // Unique per call, not just per process: concurrent writers of one
    // path in one process must not share (and steal) a temp file.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(".{file_name}.tmp.{}.{seq}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes the machine-readable campaign benchmark file
/// (`BENCH_campaign.json`): overall faults/sec, mean µs/fault (real) and
/// mean modelled s/fault, the outcome mix, and one entry per campaign.
/// The write is [atomic](atomic_write) — a killed run never leaves a
/// truncated bench file.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_bench_json(
    path: &std::path::Path,
    aggregates: &[CampaignAggregate],
) -> std::io::Result<()> {
    let n: u64 = aggregates.iter().map(|a| a.n).sum();
    let wall_s: f64 = aggregates.iter().map(|a| a.wall_s).sum();
    let modelled_s: f64 = aggregates.iter().map(|a| a.modelled_s).sum();
    let wall_us_sum: u64 = aggregates.iter().map(|a| a.exp_wall.sum()).sum();
    let failures: u64 = aggregates.iter().map(|a| a.outcomes.failures).sum();
    let latents: u64 = aggregates.iter().map(|a| a.outcomes.latents).sum();
    let silents: u64 = aggregates.iter().map(|a| a.outcomes.silents).sum();

    let campaigns: Vec<String> = aggregates
        .iter()
        .map(|a| {
            JsonObject::new()
                .str("campaign", &a.name)
                .u64("n", a.n)
                .u64("threads", a.threads)
                .f64("wall_s", a.wall_s)
                .f64("faults_per_sec", a.faults_per_sec())
                .f64("mean_us_per_fault", a.mean_us_per_fault())
                .f64("mean_modelled_s_per_fault", a.mean_modelled_s_per_fault())
                .u64("failures", a.outcomes.failures)
                .u64("latents", a.outcomes.latents)
                .u64("silents", a.outcomes.silents)
                .finish()
        })
        .collect();

    let doc = JsonObject::new()
        .str("bench", "campaign")
        .u64("faults", n)
        .f64("wall_s", wall_s)
        .f64(
            "faults_per_sec",
            if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 },
        )
        .f64(
            "mean_us_per_fault",
            if n > 0 {
                wall_us_sum as f64 / n as f64
            } else {
                0.0
            },
        )
        .f64(
            "mean_modelled_s_per_fault",
            if n > 0 { modelled_s / n as f64 } else { 0.0 },
        )
        .u64("failures", failures)
        .u64("latents", latents)
        .u64("silents", silents)
        .raw("campaigns", &array(&campaigns))
        .finish();

    atomic_write(path, &format!("{doc}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_lands_its_temp_file_next_to_the_destination() {
        // A destination outside the cwd: the temp file (and hence the
        // rename) must stay inside the destination's directory, or a
        // temp-dir on another filesystem would make the rename fail
        // with EXDEV.
        let dir = std::env::temp_dir().join(format!("fades-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("out.json");
        atomic_write(&dest, "{\"ok\":true}\n").expect("atomic write outside cwd");
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "{\"ok\":true}\n");
        // No stray temp files left behind — here or in the cwd.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files cleaned up: {leftovers:?}");
        assert!(!std::path::Path::new(&format!(".out.json.tmp.{}", std::process::id())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_all_succeed() {
        // Two threads of one process writing the same file (e.g. two
        // simultaneous cancel requests writing one job marker) must not
        // share a temp name, or the loser's rename fails with ENOENT.
        let dir = std::env::temp_dir().join(format!("fades-aw-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("marker");
        let payloads: Vec<String> = (0..8).map(|t| format!("writer {t}\n")).collect();
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|scope| {
            for payload in &payloads {
                let (dest, start) = (&dest, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        atomic_write(dest, payload).expect("concurrent atomic write");
                    }
                });
            }
        });
        let landed = std::fs::read_to_string(&dest).unwrap();
        assert!(
            payloads.contains(&landed),
            "torn or foreign content: {landed:?}"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files cleaned up: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_accepts_a_bare_file_name() {
        let name = format!("fades-aw-bare-{}.json", std::process::id());
        atomic_write(std::path::Path::new(&name), "1\n").expect("bare name writes to cwd");
        assert_eq!(std::fs::read_to_string(&name).unwrap(), "1\n");
        let _ = std::fs::remove_file(&name);
    }
}
