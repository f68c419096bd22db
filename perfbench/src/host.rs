//! Host fingerprint: what the numbers were measured on.

use std::fs;

/// The facts about the host that a measurement depends on.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPU model name.
    pub cpu: String,
    /// AVX2 detected at run time.
    pub avx2: bool,
    /// FMA detected at run time.
    pub fma: bool,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Size of the last-level cache, KiB (0 if unknown).
    pub llc_kib: u64,
    /// Core clock in GHz (0 if unknown).
    pub clock_ghz: f64,
}

impl Host {
    /// Reads the fingerprint of the running host.
    pub fn detect() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma) = (false, false);
        Host {
            cpu: field("model name").unwrap_or_else(|| "unknown".into()),
            avx2,
            fma,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            llc_kib: llc_kib(),
            clock_ghz: field("cpu MHz")
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(0.0, |m| m / 1e3),
        }
    }

    /// One line for the run log.
    pub fn line(&self) -> String {
        format!(
            "host: cpu={:?} avx2={} fma={} nproc={} llc_kib={} clock_ghz={:.3}",
            self.cpu, self.avx2, self.fma, self.nproc, self.llc_kib, self.clock_ghz
        )
    }
}

/// Size of the highest-level cache of CPU 0, KiB.
fn llc_kib() -> u64 {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    let mut best = (0u32, 0u64);
    for e in entries.flatten() {
        let p = e.path();
        let level = fs::read_to_string(p.join("level")).ok().and_then(|s| s.trim().parse().ok());
        let size = fs::read_to_string(p.join("size")).ok().and_then(|s| parse_kib(s.trim()));
        if let (Some(level), Some(size)) = (level, size) {
            if level > best.0 {
                best = (level, size);
            }
        }
    }
    best.1
}

/// Parses a sysfs cache size such as `307200K` or `2M` into KiB.
fn parse_kib(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1),
        b'M' => (&s[..s.len() - 1], 1024),
        b'G' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Peak resident set of this process so far, KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_kib("307200K"), Some(307_200));
        assert_eq!(parse_kib("2M"), Some(2048));
        assert_eq!(parse_kib("48"), Some(48));
        assert_eq!(parse_kib("x"), None);
    }
}
