//! What the kernel knows about this process: peak resident memory and CPU
//! time. Read from `/proc`, so Linux only; elsewhere both read as `None`.

use std::fs;

/// `VmHWM` of this process in MB: the most memory it ever held resident.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds of this process, all threads, exited ones
/// included. `/proc` reports clock ticks of 1/100 s (`USER_HZ`, fixed at 100
/// on Linux whatever the kernel's own tick rate).
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; fields are counted after its ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb().expect("VmHWM") > 0.5);
        let before = cpu_seconds().expect("stat");
        let mut x = 0u64;
        while cpu_seconds().expect("stat") < before + 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
