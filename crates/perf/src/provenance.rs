//! The one stamp every result carries: which commit, compiler and
//! machine produced it. Everything degrades to "unknown"/0 instead of
//! failing — the driver's checkout is not a git repository.

use hemocloud_bench::provenance::{git_rev, json_escape, rustc_version};

/// Size in bytes of cpu0's unified cache at `level` as sysfs reports it
/// (0 when unreadable). On a VM this is the host's cache, not this
/// guest's share of it.
pub fn cache_bytes(level: u32) -> u64 {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
            continue;
        }
        let size = read("size");
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1u64 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1u64 << 20),
            _ => (size, 1),
        };
        return digits.parse::<u64>().map_or(0, |n| n * scale);
    }
    0
}

/// Peak resident set (VmHWM) of this process in MiB; 0 off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The stamp as one JSON object.
pub fn stamp_json(seed: u64) -> String {
    format!(
        "{{\"git_rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \"simd\": \"{}\", \"pool_threads\": {}, \"seed\": {seed}}}",
        json_escape(&git_rev()),
        json_escape(&rustc_version()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache_bytes(2),
        cache_bytes(3),
        hemocloud_rt::simd::backend().label(),
        hemocloud_rt::par::max_threads(),
    )
}
