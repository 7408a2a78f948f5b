//! Readings taken from outside the program: process CPU and memory, the
//! loopback socket table, the filesystem under the journal, and snapshots of
//! the metrics registry the program already keeps.

use std::path::Path;
use std::time::Duration;

use mathcloud_telemetry::metrics;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Bits in the CPU masks passed to the affinity calls (glibc's `cpu_set_t`).
const CPU_SET_WORDS: usize = 1024 / 64;

/// The CPUs this thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: the mask buffer is writable and its size is passed in bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
        .collect()
}

/// Restricts this thread, and every thread it starts afterwards, to the
/// lowest-numbered CPU it may run on; returns that CPU.
///
/// On a shared virtual machine a wakeup sent to the other vCPU waits
/// whenever the hypervisor has descheduled it, so a process spread over
/// both vCPUs slows by far more than the steal time itself. On one CPU the
/// hand-offs between caller, server edge and handler pool stay local.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().first()?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the mask buffer is readable and its size is passed in bytes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPUs the process may run on, and the time the hypervisor has taken from
/// them so far (the `steal` column of `/proc/stat`, summed over those CPUs).
pub fn steal() -> (usize, Duration) {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain int and reads no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    let cpus = allowed_cpus();
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = stat
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let cpu: usize = f.next()?.strip_prefix("cpu")?.parse().ok()?;
            // user nice system idle iowait irq softirq steal
            let steal = f.nth(7)?.parse::<u64>().ok()?;
            cpus.contains(&cpu).then_some(steal)
        })
        .sum();
    (cpus.len(), Duration::from_micros(ticks * 1_000_000 / hz))
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Caps glibc's malloc arenas at the number of CPUs the process may use.
/// Call before any thread starts.
///
/// glibc gives a thread that allocates under contention an arena of its
/// own, up to eight per CPU, so how many arenas a run touches depends on
/// how its threads happened to be scheduled. Measured on `durable_submit`
/// running unpinned on two vCPUs, `VmHWM` jumped between 7.7 and 9.5 MiB
/// from run to run with the default; capped at two arenas it stayed within
/// 7.9-8.3 MiB. Called after [`pin_to_one_cpu`], it leaves one arena.
pub fn cap_malloc_arenas() {
    #[cfg(target_env = "gnu")]
    {
        const M_ARENA_MAX: i32 = -8;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // SAFETY: mallopt takes two plain ints; M_ARENA_MAX is a valid
        // parameter and no allocator state is borrowed.
        unsafe { mallopt(M_ARENA_MAX, cpus.min(i32::MAX as usize) as i32) };
    }
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// TCP sockets in TIME_WAIT in this network namespace (IPv4 and IPv6).
pub fn time_wait_sockets() -> u64 {
    ["/proc/net/sockstat", "/proc/net/sockstat6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .flat_map(|text| {
            text.lines()
                .filter(|l| l.starts_with("TCP"))
                .filter_map(|l| {
                    let mut words = l.split_whitespace();
                    words.find(|w| *w == "tw")?;
                    words.next()?.parse::<u64>().ok()
                })
                .collect::<Vec<_>>()
        })
        .sum()
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn filesystem_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// One series of a registry snapshot.
#[derive(Clone, Debug, PartialEq)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A point-in-time copy of `metrics::global()`, parsed from its Prometheus
/// rendering, so deltas need no access to the registry's internals.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    series: Vec<Series>,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        Snapshot::parse(&metrics::global().render_prometheus())
    }

    pub fn parse(text: &str) -> Snapshot {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(parse_line)
            .collect();
        Snapshot { series }
    }

    /// Sum of every series named `name` whose labels include each pair of
    /// `filter`. A filter value ending in `*` matches by prefix.
    pub fn sum(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                filter.iter().all(|(k, want)| {
                    s.labels.iter().any(|(lk, lv)| {
                        lk == k
                            && match want.strip_suffix('*') {
                                Some(prefix) => lv.starts_with(prefix),
                                None => lv == want,
                            }
                    })
                })
            })
            .map(|s| s.value)
            .sum()
    }
}

/// `after − before` of [`Snapshot::sum`].
pub fn delta(before: &Snapshot, after: &Snapshot, name: &str, filter: &[(&str, &str)]) -> f64 {
    after.sum(name, filter) - before.sum(name, filter)
}

fn parse_line(line: &str) -> Option<Series> {
    let (name_end, labels, rest) = match line.find('{') {
        Some(open) if open < line.find(' ').unwrap_or(line.len()) => {
            let (labels, after) = parse_labels(&line[open + 1..])?;
            (open, labels, after)
        }
        _ => {
            let space = line.find(' ')?;
            (space, Vec::new(), &line[space..])
        }
    };
    let value = rest.split_whitespace().next()?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().ok()?,
    };
    Some(Series {
        name: line[..name_end].to_string(),
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"}` (values escaped with `\"`, `\\`, `\n`), returning
/// the pairs and the text after the closing brace.
fn parse_labels(mut s: &str) -> Option<(Vec<(String, String)>, &str)> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start_matches(',');
        if let Some(rest) = s.strip_prefix('}') {
            return Some((labels, rest));
        }
        let eq = s.find('=')?;
        let key = s[..eq].to_string();
        let mut chars = s[eq + 1..].strip_prefix('"')?.char_indices();
        let mut value = String::new();
        let end = loop {
            let (i, c) = chars.next()?;
            match c {
                '"' => break i,
                '\\' => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                other => value.push(other),
            }
        };
        labels.push((key, value));
        s = &s[eq + 1..][1 + end + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_labels_with_braces_and_escapes() {
        let snap = Snapshot::parse(
            "# TYPE mc_http_requests_total counter\n\
             mc_http_requests_total{method=\"POST\",route=\"/services/{name}\",status=\"201\"} 7\n\
             mc_http_requests_total{method=\"GET\",route=\"/events\",status=\"200\"} 3\n\
             odd{v=\"a\\\"b}\"} 2\n\
             plain 1.5\n",
        );
        assert_eq!(
            snap.sum("mc_http_requests_total", &[("route", "/services/{name}")]),
            7.0
        );
        assert_eq!(snap.sum("mc_http_requests_total", &[]), 10.0);
        assert_eq!(snap.sum("mc_http_requests_total", &[("route", "/s*")]), 7.0);
        assert_eq!(snap.sum("odd", &[("v", "a\"b}")]), 2.0);
        assert_eq!(snap.sum("plain", &[]), 1.5);
    }
}
