//! Host and input facts stamped on every result.

use std::fmt::Write as _;
use std::path::Path;

/// One `meta {...}` JSON line: parallelism, CPU model, kernel, commit,
/// workload and seed, the link model, and every `ICD_*` / `RAYON_*`
/// variable set in the environment (the benchmark sets none itself).
#[must_use]
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ICD_") || k.starts_with("RAYON_"))
        .collect();
    env.sort();
    let mut env_json = String::new();
    for (i, (k, v)) in env.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(env_json, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
    }
    format!(
        "meta {{\"available_parallelism\": {parallelism}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \
         \"commit\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"link\": \"loopback, no real link\", \"env\": {{{env_json}}}}}",
        escape(&cpu),
        escape(&kernel),
        commit(Path::new(".git")).unwrap_or_else(|| "unknown (not a git checkout)".into()),
    )
}

/// The commit `git_dir`'s HEAD names, read without running git.
fn commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_inputs() {
        let line = stamp("daemon_small", 42, 10, false);
        assert!(line.starts_with("meta {"));
        assert!(line.contains("\"workload\": \"daemon_small\""));
        assert!(line.contains("\"seed\": 42"));
        assert!(line.contains("loopback, no real link"));
    }

    #[test]
    fn escape_keeps_json_strings_valid() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c");
    }

    #[test]
    fn commit_is_absent_outside_a_checkout() {
        assert_eq!(commit(Path::new("no/such/dir")), None);
    }
}
