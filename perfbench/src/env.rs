//! The environment record every result carries, and the process memory
//! high-water mark.

use std::fs;
use std::path::Path;

/// `nproc=… cpu="…" rustc="…" git_rev=… p=…`.
pub fn record(p: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} cpu=\"{}\" rustc=\"{}\" git_rev={} p={p}",
        cpu_model(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_rev(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git")),
    )
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from the repository's `.git` directory
/// (a detached `HEAD`, a loose ref or a packed ref). Outside a git
/// checkout: `NBODY_GIT_REV` if set, else `unknown`.
fn git_rev(git: &Path) -> String {
    let resolve = || -> Option<String> {
        let head = fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(rev) = fs::read_to_string(git.join(name)) {
            return Some(rev.trim().to_string());
        }
        fs::read_to_string(git.join("packed-refs"))
            .ok()?
            .lines()
            .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
    };
    resolve()
        .or_else(|| std::env::var("NBODY_GIT_REV").ok())
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
