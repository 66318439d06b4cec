//! Process accounting read from Linux `/proc`: CPU time (this process
//! plus the children it has reaped) and peak resident memory.

/// Clock ticks per second of the `/proc/*/stat` time fields. Linux fixes
/// `USER_HZ` at 100 for user space on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process and of every child it has
/// waited for (fields 14–17 of `/proc/self/stat`).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

/// Parses the CPU fields out of a `/proc/PID/stat` line. The command name
/// (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    let after = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed stat line: no command field")?;
    // `after` starts at field 3 (state); utime..cstime are fields 14..17.
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = fields
        .get(11..15)
        .ok_or("malformed stat line: too few fields")?
        .iter()
        .map(|f| {
            f.parse::<u64>()
                .map_err(|_| format!("bad tick count {f:?}"))
        })
        .sum::<Result<u64, String>>()?;
    Ok(ticks as f64 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_status_kb(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Reads one `Key:  N kB` line of `/proc/PID/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with(key))
        .ok_or_else(|| format!("{key} missing from /proc/self/status"))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("malformed {key} line {line:?}"))
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_after_the_command_name() {
        // pid (comm with ") (" inside) state ppid … utime stime cutime cstime …
        let line = "42 (a) (b) c) S 1 2 3 4 5 6 7 8 9 10 150 50 7 3 20 0 1 0";
        assert_eq!(parse_cpu_seconds(line), Ok(2.1));
        assert!(parse_cpu_seconds("42 no-paren S 1").is_err());
        assert!(parse_cpu_seconds("42 (x) S 1 2").is_err());
    }

    #[test]
    fn status_lines_parse_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Ok(2048));
        assert!(parse_status_kb(status, "VmRSS:").is_err());
    }

    #[test]
    fn live_process_reads_succeed() {
        assert!(cpu_seconds().expect("stat") >= 0.0);
        assert!(peak_rss_mb().expect("status") > 0.0);
    }
}
