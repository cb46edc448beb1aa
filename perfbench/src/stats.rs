//! Order statistics, process gauges, and the machine record.

use std::process::Command;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between order statistics; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
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

/// Worker threads the benchmark may use: the smaller of `nproc` and
/// `available_parallelism`.
pub fn workers() -> usize {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    nproc().map_or(available, |n| n.min(available)).max(1)
}

fn nproc() -> Option<usize> {
    let out = Command::new("nproc").output().ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

fn json_str(s: Option<String>) -> String {
    match s {
        Some(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".to_string(),
    }
}

/// The machine the numbers were taken on, as one JSON object: `nproc`,
/// `available_parallelism`, the cgroup CPU quota (`cpu.max`, null when
/// the file is absent), and the CPU model.
pub fn machine_json() -> String {
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .ok()
        .map(|s| s.trim().to_string());
    let model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
    });
    format!(
        "{{\"nproc\":{},\"available_parallelism\":{},\"cgroup_cpu_max\":{},\"cpu_model\":{},\"workers\":{}}}",
        nproc().map_or("null".to_string(), |n| n.to_string()),
        std::thread::available_parallelism().map_or("null".to_string(), |n| n.to_string()),
        json_str(quota),
        json_str(model),
        workers()
    )
}
