//! Process-level costs read from `/proc/self` (Linux only; the values
//! read as 0 elsewhere, which the harness reports as a failed run).

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI the repo
/// builds for (x86-64, aarch64); were it not, every CPU metric would be
/// scaled alike on parent and change, so comparisons would still hold.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads,
/// exited ones included.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) of this process in bytes.
pub fn rss_peak_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb * 1024.0)
}

fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses;
    // fields are counted from the last ')'. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after the command.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

fn parse_status_kb(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let stat =
            "4242 (pw bench) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 1234 66 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu(stat), Some(13.0));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn parses_vmhwm_in_kilobytes() {
        let status = "Name:\tpwbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(123456.0));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= c0);
        assert!(rss_peak_bytes() > 0.0);
    }
}
