//! Statistics over timing samples, and the peak-memory counter.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of `xs` with at least `beyond` samples above
/// it, as `(percentile, value)`: the sample with exactly `beyond` larger
/// ones. `None` when there are not more than `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= beyond {
        return None;
    }
    let i = n - 1 - beyond;
    Some((100.0 * (i + 1) as f64 / n as f64, s[i]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set in MiB, if the kernel reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that `children` cover (overlaps counted once, parts outside the span
/// ignored). Sorts `children` in place.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_the_asked_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((50.0, 10.0)));
        assert_eq!(tail(&xs[..10], 10), None);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status = "Name:\twsnbench\nVmPeak:\t  99999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(12345));
        assert_eq!(vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(60, 70), (10, 30)]), 70);
        // Overlapping children count once; parts outside the span do not.
        assert_eq!(self_time(0, 100, &mut [(10, 30), (20, 40), (90, 120)]), 60);
        assert_eq!(self_time(10, 20, &mut [(0, 30)]), 0);
    }
}
