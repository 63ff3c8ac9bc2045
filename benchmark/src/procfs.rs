//! The OS view of the child: `/proc/self/{status,stat,io}`.
//!
//! The parsers take the file's text so they can be tested on fixtures;
//! the readers return `None` where the file is unreadable (a sandbox may
//! hide `/proc/self/io`), and the caller reports the metric as absent.

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is 100
/// on every Linux ABI; reading it properly needs `sysconf`, which needs
/// `libc`, which this offline build cannot depend on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set (`VmHWM`, kB) of a `/proc/<pid>/status` text, in MiB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of a `/proc/<pid>/stat` text. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`: `utime` and `stime` are fields 14 and
/// 15, i.e. the 12th and 13th after it.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// `(rchar, wchar)` of a `/proc/<pid>/io` text, in MiB: every byte the
/// process asked to read or write, page cache or not.
pub fn parse_io_mb(io: &str) -> Option<(f64, f64)> {
    let field = |name: &str| -> Option<f64> {
        let line = io.lines().find_map(|l| l.strip_prefix(name))?;
        line.trim().parse::<f64>().ok().map(|bytes| bytes / MIB)
    };
    Some((field("rchar:")?, field("wchar:")?))
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&read("/proc/self/status")?)
}

/// Resets the peak-RSS mark to the current RSS (`echo 5 >
/// /proc/self/clear_refs`), so that the next `VmHWM` read is the peak since
/// now. Where the kernel or the sandbox refuses, the mark keeps covering
/// the whole life of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn cpu_s() -> Option<f64> {
    parse_cpu_s(&read("/proc/self/stat")?)
}

pub fn io_mb() -> Option<(f64, f64)> {
    parse_io_mb(&read("/proc/self/io")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_vmhwm_not_vmrss() {
        let status = "Name:\tslx-benchmark\nVmPeak:\t  900000 kB\nVmHWM:\t  372736 kB\n\
                      VmRSS:\t  1024 kB\nThreads:\t3\n";
        assert_eq!(parse_peak_rss_mb(status), Some(364.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // comm = "a) b (c": spaces and parentheses inside field 2.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    215 37 0 0 20 0 3 0 123456 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_s(stat), Some(2.52));
        assert_eq!(parse_cpu_s("1 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn io_reads_rchar_and_wchar_in_mib() {
        let io = "rchar: 2097152\nwchar: 524288\nsyscr: 10\nsyscw: 4\n\
                  read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_io_mb(io), Some((2.0, 0.5)));
        assert_eq!(parse_io_mb("rchar: 1\n"), None);
    }
}
