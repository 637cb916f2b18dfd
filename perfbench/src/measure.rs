//! Samples, their summary statistics, the metric table, and the few
//! process facts the benchmark reads from the operating system.

use std::collections::BTreeMap;

/// Repeated measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (0 when empty).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// First and third quartile, by the method of Python's
    /// `statistics.quantiles(values, n=4)` ("exclusive"); the single
    /// value twice when there is only one.
    pub fn quartiles(&self) -> (f64, f64) {
        let v = self.sorted();
        let ld = v.len();
        if ld < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return (x, x);
        }
        let m = ld + 1;
        let q = |i: usize| {
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (q(1), q(3))
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        let med = self.median();
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    }

    /// The `p`-th percentile (nearest rank).
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }
}

/// One measured metric: its value and, when it is a median, the
/// samples it summarises.
#[derive(Debug, Clone)]
struct Metric {
    unit: &'static str,
    value: f64,
    samples: Option<Samples>,
}

/// Every metric a run measured, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Records the median of `samples`.
    pub fn median(&mut self, name: &str, unit: &'static str, samples: &Samples) {
        let metric = Metric {
            unit,
            value: samples.median(),
            samples: Some(samples.clone()),
        };
        self.0.insert(name.to_owned(), metric);
    }

    /// Records a single value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        let metric = Metric {
            unit,
            value,
            samples: None,
        };
        self.0.insert(name.to_owned(), metric);
    }

    /// Prints every metric with its unit, and for medians the sample
    /// count, quartiles and spread (a single sample has no spread).
    pub fn print_report(&self) {
        for (name, m) in &self.0 {
            match &m.samples {
                Some(s) if s.len() < 2 => println!(
                    "metric {name} = {} {} (median of {}; spread unavailable)",
                    m.value,
                    m.unit,
                    s.len()
                ),
                Some(s) => {
                    let (q1, q3) = s.quartiles();
                    println!(
                        "metric {name} = {} {} (median of {}; q1 {q1}, q3 {q3}, spread {:.4})",
                        m.value,
                        m.unit,
                        s.len(),
                        s.spread()
                    );
                }
                None => println!("metric {name} = {} {}", m.value, m.unit),
            }
        }
    }

    /// The `metrics` object of the result line: every metric in
    /// `wanted`. A per-layer metric the workload does not exercise
    /// reads 0; a missing end-to-end metric is a bug.
    pub fn json(&self, wanted: &[(&str, &str)], zero_missing: bool) -> Result<String, String> {
        let mut parts = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let value = match self.0.get(name) {
                Some(m) if m.unit == unit => m.value,
                Some(m) => return Err(format!("metric {name} has unit {}, not {unit}", m.unit)),
                None if zero_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            // `{:?}` gives every digit of the shortest round-trip form
            // (`5.0`, `1e-7`), which is valid JSON for a finite value.
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// CPU time and peak resident set size of this process or of its
/// waited-for children.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_bytes: u64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("lpbench reads getrusage(2) with the 64-bit Linux struct layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    /// `getrusage(2)` from the C library std already links.
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Usage of this process (`children == false`) or of all its children
/// that have been waited for (`children == true`).
pub fn usage(children: bool) -> Usage {
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let mut ru = RUsage::default();
    let who = if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` for 64-bit
    // Linux (layout checked by the cfg above) that outlives the call.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        maxrss_bytes: u64::try_from(ru.maxrss).unwrap_or(0) * 1024,
    }
}

/// CPU seconds of this process plus its waited-for children.
pub fn cpu_now() -> f64 {
    usage(false).cpu_s + usage(true).cpu_s
}

/// The 1-, 5- and 15-minute load averages, as the kernel prints them.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &x in v {
            s.push(x);
        }
        s
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = samples(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(samples(&[2.0, 1.0]).quartiles(), (0.75, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = samples(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
    }
}
