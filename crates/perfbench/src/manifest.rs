//! The host manifest every output carries: CPU, cache sizes, toolchain,
//! revision — so a number can be judged against the machine it came
//! from.

use std::process::Command;

#[derive(Debug, Clone)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub l1d_bytes: u64,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
    pub rustc: String,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l1d_bytes: cache_bytes(1, "Data"),
            l2_bytes: cache_bytes(2, "Unified"),
            l3_bytes: cache_bytes(3, "Unified"),
            rustc: first_line("rustc", &["--version"]),
            git_rev: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// `(key, value)` pairs, in print order.
    pub fn fields(&self, seed: u64) -> Vec<(&'static str, String)> {
        vec![
            ("cpu_model", self.cpu_model.clone()),
            ("nproc", self.nproc.to_string()),
            ("l1d_bytes", self.l1d_bytes.to_string()),
            ("l2_bytes", self.l2_bytes.to_string()),
            ("l3_bytes", self.l3_bytes.to_string()),
            ("rustc", self.rustc.clone()),
            ("git_rev", self.git_rev.clone()),
            ("seed", seed.to_string()),
        ]
    }
}

/// Size of cpu0's cache at `level` of `kind` from sysfs (0 if absent).
fn cache_bytes(level: u32, kind: &str) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    for e in entries.flatten() {
        let read = |f: &str| std::fs::read_to_string(e.path().join(f)).unwrap_or_default();
        if read("level").trim() == level.to_string() && read("type").trim() == kind {
            let size = read("size");
            let size = size.trim();
            let (num, mult) = match size.chars().last() {
                Some('K') => (&size[..size.len() - 1], 1 << 10),
                Some('M') => (&size[..size.len() - 1], 1 << 20),
                _ => (size, 1),
            };
            return num.parse::<u64>().map_or(0, |v| v * mult);
        }
    }
    0
}

/// First line of a command's stdout, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
