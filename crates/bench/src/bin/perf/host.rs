//! Host context recorded with every result, and the thread discipline.

use serde_json::{json, Value};

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads for every measurement: all CPUs but one, so the
/// hypervisor and the harness itself have somewhere to run. On the 2-vCPU
/// reference host a 2-thread DHFR cycle repeated at 369 vs 478 ms while a
/// 1-thread cycle repeated at 573 vs 571 ms — a full-width number there
/// measures the neighbours, not the engine.
pub fn worker_threads() -> usize {
    cpus().saturating_sub(1).max(1)
}

/// Pin the engine's worker count. The rayon stand-in re-reads the variable
/// on every parallel call, so this also switches width mid-run.
pub fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit of the enclosing git work tree, read from `.git` without
/// starting a process; "unknown" in an exported checkout.
fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let rev = match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
                None => head.to_string(),
            };
            let rev = rev.trim();
            return if rev.is_empty() { head } else { rev }.to_string();
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `{cpus, threads, git_rev, rustc, debug_build}`.
pub fn context() -> Value {
    json!({
        "cpus": cpus(),
        "threads": worker_threads(),
        "git_rev": git_rev(),
        "rustc": rustc_version(),
        "debug_build": cfg!(debug_assertions),
    })
}
