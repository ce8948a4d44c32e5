//! The few `/proc/self` counters the benchmark reads: peak resident set,
//! write traffic and reaped children's CPU time. Parsers take the file's
//! text so they can be tested on fixtures.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is
/// 100 on every architecture Linux supports for user space.
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set) from `/proc/<pid>/status` text, in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib * 1024)
}

/// Write counters from `/proc/<pid>/io` text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes passed to `write`-family calls (`wchar`).
    pub write_bytes: u64,
    /// Number of `write`-family calls (`syscw`).
    pub write_calls: u64,
}

impl IoCounters {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            write_calls: self.write_calls.saturating_sub(earlier.write_calls),
        }
    }
}

/// Parse `wchar` and `syscw` from `/proc/<pid>/io` text.
pub fn parse_io(io: &str) -> Option<IoCounters> {
    let field = |key: &str| -> Option<u64> {
        io.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
            .trim()
            .parse()
            .ok()
    };
    Some(IoCounters {
        write_bytes: field("wchar")?,
        write_calls: field("syscw")?,
    })
}

/// CPU seconds (user + system) of reaped children, from
/// `/proc/<pid>/stat` text: fields 16 `cutime` and 17 `cstime`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted after its last `)`.
pub fn parse_children_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k − 3
    let cutime: u64 = fields.get(13)?.parse().ok()?;
    let cstime: u64 = fields.get(14)?.parse().ok()?;
    Some((cutime + cstime) as f64 / USER_HZ)
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// This process's peak resident set in MiB (0 when `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    parse_vm_hwm(&read("/proc/self/status")).unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// This process's write counters so far (zero when unreadable).
pub fn io() -> IoCounters {
    parse_io(&read("/proc/self/io")).unwrap_or_default()
}

/// CPU seconds of this process's reaped children so far.
pub fn children_cpu_s() -> f64 {
    parse_children_cpu_s(&read("/proc/self/stat")).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\te2e-bench\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  123456 kB\nVmSize:\t  120000 kB\nVmHWM:\t   45678 kB\n\
        VmRSS:\t   40000 kB\nThreads:\t3\n";

    const IO: &str = "rchar: 1048576\nwchar: 2097152\nsyscr: 300\nsyscw: 1201\n\
        read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";

    // comm "(e2e bench) x" holds a space and a ')' to defeat naive splits
    const STAT: &str = "4242 (e2e bench) x) S 1 4242 4242 0 -1 4194560 1500 250 0 0 \
        30 7 123 45 20 0 3 0 98765 123456789 11111 18446744073709551615";

    #[test]
    fn vm_hwm_is_parsed_in_bytes() {
        assert_eq!(parse_vm_hwm(STATUS), Some(45678 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn io_counters_are_parsed_and_differenced() {
        let io = parse_io(IO).expect("fixture parses");
        assert_eq!(
            io,
            IoCounters {
                write_bytes: 2_097_152,
                write_calls: 1201
            }
        );
        // `write_bytes:` (storage-level) must not be mistaken for `wchar`
        assert_eq!(parse_io("write_bytes: 5\nsyscw: 1\n"), None);
        let later = IoCounters {
            write_bytes: 2_097_152 + 100,
            write_calls: 1205,
        };
        assert_eq!(
            later.since(&io),
            IoCounters {
                write_bytes: 100,
                write_calls: 4
            }
        );
    }

    #[test]
    fn children_cpu_is_cutime_plus_cstime() {
        // utime 30, stime 7 are this process's own; cutime 123 + cstime 45
        let s = parse_children_cpu_s(STAT).expect("fixture parses");
        assert!((s - 1.68).abs() < 1e-12, "{s}");
        assert_eq!(parse_children_cpu_s("4242 (short) S 1 2"), None);
        assert_eq!(parse_children_cpu_s("no parens at all"), None);
    }

    #[test]
    fn live_proc_files_parse_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
            assert!(parse_children_cpu_s(&read("/proc/self/stat")).is_some());
        }
    }
}
