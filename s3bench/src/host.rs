//! The machine a number was measured on, recorded in every output.

use crate::json::Value;
use std::process::Command;

/// Host facts that decide how a timing should be read.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, when it is a
    /// repository (the driver's checkouts are not).
    pub git: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl HostRecord {
    /// Probe the current host; every field falls back to `unknown`.
    pub fn probe() -> Self {
        let unknown = || "unknown".to_string();
        let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        });
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu.unwrap_or_else(unknown),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("nproc", Value::from(self.nproc)),
            ("cpu", Value::from(self.cpu.as_str())),
            ("rustc", Value::from(self.rustc.as_str())),
            ("git", Value::from(self.git.as_str())),
        ])
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB; zero
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
