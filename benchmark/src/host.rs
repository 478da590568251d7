//! What a result depends on besides the code: the host it ran on.
//!
//! Numbers count only against numbers from the same host, so every result
//! file carries a [`HostStamp`] and the A/B runner refuses to compare
//! results whose stamps differ in anything but the commit.

use std::process::Command;

use serde::{json, Value};

/// The host and build a result came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostStamp {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built this binary.
    pub rustc: String,
    /// The commit of the checkout the binary was built from, or `unknown`.
    pub commit: String,
}

impl HostStamp {
    /// The stamp of this process.
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // Only a checkout that is itself a repository has a commit; asking
        // git elsewhere would report whatever repository encloses it.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let commit = Some(root.join(".git"))
            .filter(|git| git.exists())
            .and_then(|_| {
                Command::new("git")
                    .arg("-C")
                    .arg(&root)
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
            })
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("SHIFT_BENCHMARK_RUSTC").to_owned(),
            commit,
        }
    }

    /// Whether results stamped `self` and `other` may be compared: same
    /// host and compiler, any commit.
    pub fn comparable(&self, other: &HostStamp) -> bool {
        self.nproc == other.nproc && self.cpu_model == other.cpu_model && self.rustc == other.rustc
    }

    /// The stamp as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("nproc".to_owned(), Value::UInt(self.nproc as u64)),
            ("cpu_model".to_owned(), Value::Str(self.cpu_model.clone())),
            ("rustc".to_owned(), Value::Str(self.rustc.clone())),
            ("commit".to_owned(), Value::Str(self.commit.clone())),
        ])
    }

    /// Parses [`HostStamp::to_value`]'s JSON.
    pub fn parse(text: &str) -> Option<Self> {
        let doc = json::parse(text).ok()?;
        let s = |f: &str| doc.get(f).and_then(Value::as_str).map(str::to_owned);
        Some(HostStamp {
            nproc: doc.get("nproc")?.as_u64()? as usize,
            cpu_model: s("cpu_model")?,
            rustc: s("rustc")?,
            commit: s("commit")?,
        })
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip_and_ignore_the_commit_when_comparing() {
        let a = HostStamp::current();
        let back = HostStamp::parse(&json::to_string(&a.to_value())).expect("parses");
        assert_eq!(back, a);
        let other_commit = HostStamp {
            commit: "0123".to_owned(),
            ..a.clone()
        };
        assert!(a.comparable(&other_commit));
        let other_host = HostStamp {
            nproc: a.nproc + 1,
            ..a.clone()
        };
        assert!(!a.comparable(&other_host));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
